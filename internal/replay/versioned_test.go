package replay_test

import (
	"repro/internal/replay"
	"sync"
	"testing"

	"repro/internal/machine"
)

func TestVersionedMemoryTracksWrites(t *testing.T) {
	src := `
.word g 5
main:
  ldi r2, g
  ld r3, [r2+0]
  fence
  addi r3, r3, 2
  st [r2+0], r3
  fence
  addi r3, r3, 3
  st [r2+0], r3
  halt
`
	log, _ := recordSrc(t, src, machine.Config{Seed: 1})
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vm := exec.Memory()
	var gAddr uint64
	for a := range log.Prog.Data {
		gAddr = a
	}
	// Region 0 observes 5; region 1 writes 7; region 2 writes 10.
	if _, ok := vm.Before(gAddr, 0); ok {
		t.Error("nothing before region 0")
	}
	if v, ok := vm.Before(gAddr, 1); !ok || v != 5 {
		t.Errorf("before region 1 = %d,%v, want 5", v, ok)
	}
	if v, ok := vm.Before(gAddr, 2); !ok || v != 7 {
		t.Errorf("before region 2 = %d,%v, want 7", v, ok)
	}
	if v, ok := vm.Before(gAddr, 99); !ok || v != 10 {
		t.Errorf("final value = %d,%v, want 10", v, ok)
	}
	if _, ok := vm.Before(0xdead, 99); ok {
		t.Error("untouched address should be unknown")
	}
	// Live-ins: region 0 reads 5 first; regions 1 and 2 start from the
	// values regions 0 and 1 left.
	for g, want := range []uint64{5, 5, 7} {
		if v, ok := vm.LiveIn(gAddr, g); !ok || v != want {
			t.Errorf("live-in of region %d = %d,%v, want %d", g, v, ok, want)
		}
	}
	if _, ok := vm.LiveIn(0xdead, 0); ok {
		t.Error("untouched address has no live-in")
	}
}

func TestVersionedMemoryAgreesWithFinalImage(t *testing.T) {
	log, _ := recordSrc(t, racyCounterSrc, machine.Config{Seed: 5})
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The final image: the last value the run gave each address.
	final := map[uint64]uint64{}
	for _, r := range exec.Regions {
		for _, a := range r.Accesses {
			final[a.Addr] = a.Val
		}
	}
	if len(final) == 0 {
		t.Fatal("no accesses recorded")
	}
	vm := exec.Memory()
	for addr, want := range final {
		if v, ok := vm.Before(addr, len(exec.Regions)+1); !ok || v != want {
			t.Errorf("addr 0x%x: versioned %d,%v vs image %d", addr, v, ok, want)
		}
	}
}

// TestMemoryConcurrentFirstUse: the history is built once, behind a
// sync.Once, and shared; concurrent first use from several goroutines
// must agree (run under -race).
func TestMemoryConcurrentFirstUse(t *testing.T) {
	log, _ := recordSrc(t, racyCounterSrc, machine.Config{Seed: 7})
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		val uint64
		ok  bool
	}
	const workers = 4
	results := make([][]answer, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vm := exec.Memory()
			for _, r := range exec.Regions {
				for _, a := range r.Accesses {
					v, ok := vm.LiveIn(a.Addr, r.Global)
					results[w] = append(results[w], answer{v, ok})
				}
			}
		}(w)
	}
	wg.Wait()
	if len(results[0]) == 0 {
		t.Fatal("no live-ins looked up")
	}
	for w := 1; w < workers; w++ {
		if len(results[w]) != len(results[0]) {
			t.Fatalf("worker %d: %d answers, worker 0: %d", w, len(results[w]), len(results[0]))
		}
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d answer %d = %v, worker 0 = %v", w, i, results[w][i], results[0][i])
			}
		}
	}
}
