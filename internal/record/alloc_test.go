package record_test

import (
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/workloads"
)

// A registry may cost a recording its counters and its span, nothing
// that grows with the log: with a warmed registry, RunInstrumented
// allocates within these constants of Run, per recording. The bytes
// cover the growth of machine.instructions_per_thread's sample buffer
// (one sample per thread until it holds 4,096), about 0.7 KiB a
// recording of browse's threads.
const (
	instrumentedExtraAllocs = 2
	instrumentedExtraBytes  = 2048
)

// TestInstrumentedRecordingAllocatesAsPlain records exec01, the smallest
// suite program, and browse, the largest served one, with and without a
// warmed registry and compares the allocations per recording. Tests in
// this package run sequentially, so the heap totals are the recordings'
// own.
func TestInstrumentedRecordingAllocatesAsPlain(t *testing.T) {
	const runs = 20
	for _, sc := range []workloads.Scenario{workloads.Scenarios()[0], workloads.BrowseScenario()} {
		prog, err := sc.Program()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		cfg := sc.Config()
		reg := obs.NewRegistry()
		plain := func() {
			if _, _, err := record.Run(prog, cfg); err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
		}
		instrumented := func() {
			if _, _, err := record.RunInstrumented(prog, cfg, reg); err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
		}
		instrumented() // create the registry's counters and span

		perRun := func(f func()) (allocs, bytes uint64) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				f()
			}
			runtime.ReadMemStats(&after)
			return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
		}
		plainAllocs, plainBytes := perRun(plain)
		instAllocs, instBytes := perRun(instrumented)
		if instAllocs > plainAllocs+instrumentedExtraAllocs || instBytes > plainBytes+instrumentedExtraBytes {
			t.Errorf("%s: RunInstrumented allocates %d objects, %d B per recording; Run %d objects, %d B (allowance +%d objects, +%d B)",
				sc.Name, instAllocs, instBytes, plainAllocs, plainBytes, instrumentedExtraAllocs, instrumentedExtraBytes)
		}
	}
}
