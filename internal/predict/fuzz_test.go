package predict_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/predict"
	"repro/internal/progen"
	"repro/internal/record"
	"repro/internal/replay"
)

// FuzzPredict steers the prediction pass over arbitrary well-formed
// generated programs. Six contracts are under test: totality (the
// window solver must never panic and must terminate — every loop is
// bounded by the region count or the window), determinism (the same
// execution predicted twice yields the same report), subsumption
// (every race the strict happens-before detector observed must appear
// among the predicted candidates, since an observed overlap is its own
// witness), lock mutual exclusion (every reordered witness passes the
// independent lock replay of witnessLockError), the window bound (no
// reordered witness spans more than the window), and the overlap
// horizon (hb.Detect's instances equal those of a search that visits
// every region pair). The shape encoding is shared with
// progen.FuzzPipeline so a crasher found against the dynamic pipeline
// replays here directly.
func FuzzPredict(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(42), uint8(255))
	f.Add(int64(-3), uint8(0b10101))
	f.Add(int64(7), uint8(1<<5))
	f.Add(int64(99), uint8(1<<6|1<<7))
	f.Fuzz(func(t *testing.T, genSeed int64, cfgBits uint8) {
		r := rand.New(rand.NewSource(genSeed))
		cfg := progen.BitsConfig(cfgBits, r)
		src := progen.Generate(r, cfg)
		prog, err := asm.Assemble("fz", src)
		if err != nil {
			t.Fatalf("generated program failed to assemble: %v", err)
		}
		log, _, err := record.Run(prog, machine.Config{Seed: genSeed})
		if err != nil {
			t.Skipf("recording failed: %v", err)
		}
		exec, err := replay.Run(log, replay.Options{})
		if err != nil {
			t.Fatalf("replay diverged: %v", err)
		}
		rep := predict.Run(exec, predict.Options{})
		if rep == nil {
			t.Fatal("Run returned nil report")
		}
		predicted := map[hb.SitePair]bool{}
		for _, c := range rep.Candidates {
			predicted[c.Sites] = true
		}
		observed := hb.Detect(exec)
		for _, race := range observed.Races {
			if !predicted[race.Sites] {
				t.Fatalf("observed race %s not among %d predicted candidates",
					race.Sites, len(rep.Candidates))
			}
		}
		full := map[hb.SitePair][]hb.Instance{}
		hb.Search(exec, len(exec.Regions), func(a, b *replay.Region, _ uint64) bool { return a.Overlaps(b) },
			func(sites hb.SitePair, in hb.Instance) { full[sites] = append(full[sites], in) })
		if len(full) != len(observed.Races) {
			t.Fatalf("hb.Detect found %d races, a full-reach search %d", len(observed.Races), len(full))
		}
		for _, race := range observed.Races {
			if !reflect.DeepEqual(race.Instances, full[race.Sites]) {
				t.Fatalf("race %s: hb.Detect has %d instances, a full-reach search %d",
					race.Sites, len(race.Instances), len(full[race.Sites]))
			}
		}
		for _, c := range rep.Candidates {
			if c.Witness.Kind != "reordered" {
				continue
			}
			if span := c.Witness.Regions[len(c.Witness.Regions)-1] - c.Witness.Regions[0]; span > rep.Window {
				t.Fatalf("witness %v spans %d regions, window %d", c.Witness.Regions, span, rep.Window)
			}
			if err := witnessLockError(exec, c.Witness); err != nil {
				t.Fatalf("witness %v cannot execute: %v", c.Witness.Regions, err)
			}
		}
		again := predict.Run(exec, predict.Options{})
		if !reflect.DeepEqual(rep, again) {
			t.Fatal("Run is not deterministic on the same execution")
		}
	})
}
