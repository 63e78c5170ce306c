# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench trace paper fuzz cover clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the flight-recorder artifacts: a parallel suite run with the
# timeline on (load racer-trace.json at https://ui.perfetto.dev) and the
# verdict-provenance audit trail. The suite exits 1 by design — it
# reports potentially harmful races — so only exit codes above 1 fail.
trace:
	$(GO) run ./cmd/racer suite -seeds 2 -jobs 4 \
		-trace-out racer-trace.json -audit-out racer-audit.json || test $$? -eq 1
	@echo "wrote racer-trace.json and racer-audit.json"

paper:
	$(GO) run ./cmd/paperbench

fuzz:
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzDecompress -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzDecodeV2 -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzAssemble -fuzztime=30s ./internal/asm
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/isa
	$(GO) test -fuzz=FuzzAnalyze -fuzztime=30s ./internal/static
	$(GO) test -fuzz=FuzzPredict -fuzztime=30s ./internal/predict
	$(GO) test -fuzz=FuzzPipeline -fuzztime=30s ./internal/progen
	$(GO) test -fuzz=FuzzMemory -fuzztime=30s ./internal/machine
	$(GO) test -fuzz=FuzzReplay -fuzztime=30s -fuzzminimizetime=50x ./internal/replay

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt racer-trace.json racer-audit.json
