package replay_test

import (
	"runtime"
	"testing"

	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Allocation bounds of replay.Run plus Execution.Memory. They may only
// get tighter: a change that needs more must show why in its own review.
// The figures they were set from (go1.24, linux/amd64): browse 69
// allocations per replay (71 under -race); the 18 suite scenarios
// 66.5 KiB (66.8 KiB under -race) and 53 allocations per log.
const (
	maxBrowseAllocs     = 80
	maxSuiteBytesPerLog = 67.5 * 1024
)

// recordScenario records sc at its own configuration.
func recordScenario(tb testing.TB, sc workloads.Scenario) *trace.Log {
	tb.Helper()
	prog, err := sc.Program()
	if err != nil {
		tb.Fatalf("%s: %v", sc.Name, err)
	}
	log, _, err := record.Run(prog, sc.Config())
	if err != nil {
		tb.Fatalf("%s: %v", sc.Name, err)
	}
	return log
}

// replayIndexed replays log and builds its memory index.
func replayIndexed(t *testing.T, log *trace.Log) {
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec.Memory()
}

// TestReplayAllocationBounds holds replay and the memory index to the
// bounds above: allocations per replay of browse, the largest of the
// served recordings, and bytes per log over the suite's small ones. Tests
// in this package run sequentially, so the heap totals are the replays'
// own.
func TestReplayAllocationBounds(t *testing.T) {
	browse := recordScenario(t, workloads.BrowseScenario())
	if got := testing.AllocsPerRun(3, func() { replayIndexed(t, browse) }); got > maxBrowseAllocs {
		t.Errorf("browse: %.0f allocations per replay, bound %d", got, maxBrowseAllocs)
	}

	var logs []*trace.Log
	for _, sc := range workloads.Scenarios() {
		logs = append(logs, recordScenario(t, sc))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, log := range logs {
		replayIndexed(t, log)
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(logs)); got > maxSuiteBytesPerLog {
		t.Errorf("suite: %.1f KiB per log, bound %.1f KiB", got/1024, maxSuiteBytesPerLog/1024)
	}
}
