package replay_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/workloads"
)

// pinnedPolicies are the scheduler policies every pinned scenario runs
// under, each at the scenario's seed and the one after it: the same 120
// executions internal/record's TestRecordingsPinned pins.
var pinnedPolicies = []machine.SchedPolicy{machine.PolicyRandom, machine.PolicyRoundRobin, machine.PolicyPCT}

// hashExecution writes everything a replay produces to h, field by
// field: the regions in schedule order (bounds, kinds, entry state, sync
// annotations, heap epoch and accesses), the heap events, each thread's
// final state and output, and the memory index's screen and every
// address's refs, addresses in order of first access.
func hashExecution(h hash.Hash, exec *replay.Execution) {
	var addrs []uint64
	seen := make(map[uint64]bool)
	for _, r := range exec.Regions {
		fmt.Fprintf(h, "R %d %d %d %d-%d %d-%d %v %v %d %v %d %d %d %d %d\n",
			r.Global, r.TID, r.Ordinal, r.StartTS, r.EndTS, r.StartIdx, r.EndIdx, r.StartKind, r.EndKind,
			r.StartCpu.PC, r.StartCpu.Regs, r.SyncAddr, r.StartSyscall, r.SpawnChild, r.JoinTarget, r.HeapEpoch)
		for _, a := range r.Accesses {
			fmt.Fprintf(h, "a %d %d %d %x %d %v %v\n", a.TID, a.Idx, a.PC, a.Addr, a.Val, a.IsWrite, a.Atomic)
			if !seen[a.Addr] {
				seen[a.Addr] = true
				addrs = append(addrs, a.Addr)
			}
		}
	}
	for _, ev := range exec.HeapEvents {
		fmt.Fprintf(h, "H %d %x %d\n", ev.Kind, ev.Base, ev.Size)
	}
	for _, t := range exec.Threads {
		fmt.Fprintf(h, "T %d %d %v %v %v %d\n", t.TID, t.FinalCpu.PC, t.FinalCpu.Regs, t.Output, t.EndReason, t.ExitCode)
	}
	vm := exec.Memory()
	shared, data := vm.Screen()
	fmt.Fprintf(h, "S %d %x\n", data, shared)
	for _, addr := range addrs {
		fmt.Fprintf(h, "M %x %v\n", addr, vm.Refs(addr))
	}
}

// pinnedReplayRows computes one row per pinned execution: "scenario
// policy seed" and the sha256 of hashExecution over the replay of
// record.Run's log.
func pinnedReplayRows(t *testing.T) map[string]string {
	t.Helper()
	rows := make(map[string]string)
	for _, sc := range append(workloads.Scenarios(), workloads.BrowseScenario(), workloads.ServiceScenario()) {
		prog, err := sc.Program()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, p := range pinnedPolicies {
			for seed := sc.Seed; seed < sc.Seed+2; seed++ {
				cfg := sc.Config()
				cfg.Seed, cfg.Policy = seed, p
				key := fmt.Sprintf("%s %s %d", sc.Name, p, seed)
				log, _, err := record.Run(prog, cfg)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				exec, err := replay.Run(log, replay.Options{})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				h := sha256.New()
				hashExecution(h, exec)
				rows[key] = fmt.Sprintf("replay=%x", h.Sum(nil))
			}
		}
	}
	return rows
}

// TestReplaysPinned pins the replay of the 18 suite scenarios, browse
// and service under every scheduler policy at two seeds each against
// testdata/replays.txt, so a change to the replayer or the memory index
// that moves one region, access, heap event, final state, screened
// address or ref fails.
func TestReplaysPinned(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "replays.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Fatalf("malformed pin %q", line)
		}
		want[strings.Join(fields[:3], " ")] = fields[3]
	}
	got := pinnedReplayRows(t)
	if len(got) != len(want) {
		t.Fatalf("%d rows computed, %d pinned", len(got), len(want))
	}
	for key, g := range got {
		if g != want[key] {
			t.Errorf("%s:\n got    %s\n pinned %s", key, g, want[key])
		}
	}
}
