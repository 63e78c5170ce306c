package replay_test

import (
	"slices"
	"testing"

	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// maxFuzzInstructions bounds the instructions a fuzzed log may claim:
// replay runs every one of them, so a larger claim only slows the run.
const maxFuzzInstructions = 1 << 16

// FuzzReplay decodes arbitrary bytes in salvage mode, as analyze-dir and
// racer serve do, and replays every log that validates. Replay must
// never panic, and when it succeeds the memory index must agree with a
// plain-map reference built from the regions' accesses: every address's
// refs in schedule order, no refs for an address nothing touched, and
// the screen. Every free event must free a block live at its epoch
// (BlockAt). The seeds are the recorded suite scenarios.
func FuzzReplay(f *testing.F) {
	for _, sc := range workloads.Scenarios() {
		f.Add(trace.MarshalV2(recordScenario(f, sc)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		log, _, err := trace.Decode(data, trace.DecodeOptions{Salvage: true})
		if err != nil || log.Validate() != nil {
			return
		}
		var n uint64
		for _, tl := range log.Threads {
			if n += tl.Retired; tl.Retired > maxFuzzInstructions || n > maxFuzzInstructions {
				return
			}
		}
		exec, err := replay.Run(log, replay.Options{})
		if err != nil {
			return
		}
		checkMemory(t, exec)
		for i, ev := range exec.HeapEvents {
			if size, live := exec.BlockAt(ev.Base, i); ev.Kind == replay.HeapFree && (!live || size != ev.Size) {
				t.Fatalf("heap event %d frees 0x%x (%d words); BlockAt there: %d, %v", i, ev.Base, ev.Size, size, live)
			}
		}
	})
}

// checkMemory compares exec's memory index with plain maps over its
// regions' accesses.
func checkMemory(t *testing.T, exec *replay.Execution) {
	t.Helper()
	refs := make(map[uint64][]replay.Ref)
	tids := make(map[uint64]map[int]bool) // non-atomic accessors
	written := make(map[uint64]bool)      // a non-atomic access wrote it
	for g, r := range exec.Regions {
		if r.Global != g {
			t.Fatalf("region %d has Global %d", g, r.Global)
		}
		for i, a := range r.Accesses {
			refs[a.Addr] = append(refs[a.Addr], replay.Ref{Region: int32(g), Index: int32(i)})
			if a.Atomic {
				continue
			}
			if tids[a.Addr] == nil {
				tids[a.Addr] = make(map[int]bool)
			}
			tids[a.Addr][a.TID] = true
			written[a.Addr] = written[a.Addr] || a.IsWrite
		}
	}
	vm := exec.Memory()
	for addr, want := range refs {
		if got := vm.Refs(addr); !slices.Equal(got, want) {
			t.Fatalf("Refs(0x%x) = %v, reference %v", addr, got, want)
		}
		for _, near := range []uint64{addr - 1, addr + 1, addr ^ 1<<6} {
			if _, touched := refs[near]; !touched && vm.Refs(near) != nil {
				t.Fatalf("Refs(0x%x) = %v for an address no access touched", near, vm.Refs(near))
			}
		}
	}
	var shared []uint64
	for addr, ts := range tids {
		if len(ts) > 1 && written[addr] {
			shared = append(shared, addr)
		}
	}
	slices.Sort(shared)
	if got, data := vm.Screen(); !slices.Equal(got, shared) || data != len(tids) {
		t.Fatalf("Screen() = %x, %d; reference %x, %d", got, data, shared, len(tids))
	}
}
