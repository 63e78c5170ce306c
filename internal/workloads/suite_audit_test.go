package workloads

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// The audit trail is a pure function of the suite inputs: running the
// offline half serially and on eight workers must produce byte-identical
// provenance files.
func TestSuiteAuditByteIdenticalAcrossJobs(t *testing.T) {
	serialReg := obs.NewRegistry()
	serial, err := RunSuite(SuiteOptions{Jobs: 1, Audit: true, Registry: serialReg})
	if err != nil {
		t.Fatal(err)
	}
	parallelReg := obs.NewRegistry()
	parallel, err := RunSuite(SuiteOptions{Jobs: 8, Audit: true, Registry: parallelReg})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Audit == nil || parallel.Audit == nil {
		t.Fatal("Audit option did not produce an audit file")
	}
	b1, err := serial.Audit.Marshal()
	if err != nil {
		t.Fatalf("serial audit file invalid: %v", err)
	}
	b8, err := parallel.Audit.Marshal()
	if err != nil {
		t.Fatalf("parallel audit file invalid: %v", err)
	}
	if !bytes.Equal(b1, b8) {
		t.Fatalf("audit files diverge between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", b1, b8)
	}

	// Shape: one execution per suite slot, each analyzed slot hashed and
	// carrying races with complete per-instance evidence.
	if len(serial.Audit.Executions) != len(serial.Scenarios)+len(serial.Quarantined) {
		t.Fatalf("executions = %d, want %d scenarios + %d quarantined",
			len(serial.Audit.Executions), len(serial.Scenarios), len(serial.Quarantined))
	}
	var insts, origFails, altFails, diffs int
	for _, e := range serial.Audit.Executions {
		for _, r := range e.Races {
			insts += len(r.Instances)
			for _, in := range r.Instances {
				diffs += in.Diffs
				if in.Outcome == "replay-failure" {
					if in.OrigOrder != "ok" {
						origFails++
					} else {
						altFails++
					}
				}
			}
		}
	}
	if want := serial.Merged.TotalInstances(); insts != want {
		t.Fatalf("audit instances = %d, want %d (merged classification total)", insts, want)
	}

	// classify publishes the vproc.* counters from each instance's
	// result, cached or replayed, so they follow the per-instance
	// evidence exactly.
	for name, want := range map[string]int{
		"vproc.instances_analyzed":         insts,
		"vproc.order_replays":              2 * insts,
		"vproc.order_failures_original":    origFails,
		"vproc.order_failures_alternative": altFails,
		"vproc.liveout_diffs":              diffs,
	} {
		if got := serialReg.Counter(name).Value(); got != uint64(want) {
			t.Errorf("%s = %d, want %d from the audit trail", name, got, want)
		}
	}
	if origFails == 0 || altFails == 0 {
		t.Errorf("suite replay failures: %d original, %d alternative; want both orders represented", origFails, altFails)
	}

	// The memo replays each fingerprint once, so at any worker count the
	// canonical cache derivation and the runtime memo agree exactly:
	// derived hits and misses equal the classify.memo.* counters.
	hits, misses := serial.Audit.CacheHits()
	for jobs, reg := range map[int]*obs.Registry{1: serialReg, 8: parallelReg} {
		if got := reg.Counter("classify.memo.hits").Value(); uint64(hits) != got {
			t.Errorf("derived cache hits = %d, runtime memo hits at jobs=%d = %d", hits, jobs, got)
		}
		if got := reg.Counter("classify.memo.misses").Value(); uint64(misses) != got {
			t.Errorf("derived cache misses = %d, runtime at jobs=%d = %d", misses, jobs, got)
		}
	}
	if hits == 0 {
		t.Error("suite exposes recurring instances; derived cache hits should be > 0")
	}
}
