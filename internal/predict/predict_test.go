package predict_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/trace"
)

func analyze(t *testing.T, src string, seed int64) (*replay.Execution, *hb.Report) {
	t.Helper()
	prog, err := asm.Assemble("predict", src)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := record.Run(prog, machine.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return exec, hb.Detect(exec)
}

const twoWorkers = `
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, worker
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`

// The handwritten shapes the agreement tests sweep: every synchronization
// idiom the solver must respect — unlocked sharing, a common lock,
// fork/join ordering, atomics — plus single-threaded control.
var shapes = map[string]string{
	"racy-counter": `
.entry main
.word n 0
worker:
  ldi r2, 8
wloop:
  ldi r4, n
rread:
  ld r5, [r4+0]
  addi r5, r5, 1
rwrite:
  st [r4+0], r5
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
` + twoWorkers,
	"locked-counter": `
.entry main
.word n 0
.word m 0
worker:
  ldi r2, 6
wloop:
  ldi r3, m
  lock [r3+0]
  ldi r4, n
lread:
  ld r5, [r4+0]
  addi r5, r5, 1
lwrite:
  st [r4+0], r5
  unlock [r3+0]
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
` + twoWorkers,
	"atomic-counter": `
.entry main
.word n 0
worker:
  ldi r2, 6
  ldi r6, 1
wloop:
  ldi r4, n
  xadd r5, [r4+0], r6
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
` + twoWorkers,
	"forkjoin-ordered": `
.entry main
.word n 0
worker:
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  mov r1, r6
  sys join
  ldi r4, n
  ld r5, [r4+0]
  sys print
  halt
`,
	"single-thread": `
.entry main
.word n 0
main:
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  halt
`,
}

// TestPredictionSubsumesObservation is the agreement contract: every
// race the strict happens-before detector observed must also appear
// among the prediction pass's candidates — overlap implies weak-HB
// concurrency, disjoint locksets, and an "observed" witness, so a
// predicted miss would be a soundness bug in one of the two engines.
func TestPredictionSubsumesObservation(t *testing.T) {
	for name, src := range shapes {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				exec, races := analyze(t, src, seed)
				rep := predict.Run(exec, predict.Options{})
				predicted := map[hb.SitePair]bool{}
				for _, c := range rep.Candidates {
					predicted[c.Sites] = true
				}
				for _, race := range races.Races {
					if !predicted[race.Sites] {
						t.Fatalf("seed %d: observed race %s not predicted (candidates: %d)",
							seed, race.Sites, len(rep.Candidates))
					}
				}
			}
		})
	}
}

// TestDeterministic pins that prediction is a pure function of the
// execution: two passes over the same replay yield identical reports.
func TestDeterministic(t *testing.T) {
	for name, src := range shapes {
		exec, _ := analyze(t, src, 3)
		a := predict.Run(exec, predict.Options{})
		b := predict.Run(exec, predict.Options{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: prediction is not deterministic", name)
		}
	}
}

// TestSynchronizedShapesPredictNothing: a correctly locked counter, an
// atomic counter, fork/join-ordered sharing, and a single-threaded
// program admit no feasible race — predicting one would be a false
// positive the replay classifier should never even see.
func TestSynchronizedShapesPredictNothing(t *testing.T) {
	for _, name := range []string{"locked-counter", "atomic-counter", "forkjoin-ordered", "single-thread"} {
		for seed := int64(1); seed <= 20; seed++ {
			exec, races := analyze(t, shapes[name], seed)
			if len(races.Races) != 0 {
				t.Fatalf("%s seed %d: expected no observed races, got %d", name, seed, len(races.Races))
			}
			rep := predict.Run(exec, predict.Options{})
			if len(rep.Candidates) != 0 {
				t.Fatalf("%s seed %d: predicted %d candidates on a race-free-by-construction shape; first: %s",
					name, seed, len(rep.Candidates), rep.Candidates[0].Sites)
			}
		}
	}
}

// TestRacyShapePredictsEverySeed: the unlocked counter admits a feasible
// race under every schedule, and every candidate names its read or write.
func TestRacyShapePredictsEverySeed(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		exec, _ := analyze(t, shapes["racy-counter"], seed)
		rep := predict.Run(exec, predict.Options{})
		if len(rep.Candidates) == 0 {
			t.Fatalf("seed %d: racy counter predicted no candidates", seed)
		}
		for _, c := range rep.Candidates {
			if !strings.Contains(c.Sites.String(), "rread") && !strings.Contains(c.Sites.String(), "rwrite") {
				t.Fatalf("seed %d: unexpected candidate sites %s", seed, c.Sites)
			}
		}
	}
}

// TestWitnessShape checks the witness invariants on every candidate:
// observed witnesses name exactly the two racing regions; reordered
// witnesses are a chain of the later thread's regions (in schedule
// order) ending at the later racing region, starting at the earlier
// one, all within the window.
func TestWitnessShape(t *testing.T) {
	for name, src := range shapes {
		for seed := int64(1); seed <= 20; seed++ {
			exec, _ := analyze(t, src, seed)
			rep := predict.Run(exec, predict.Options{})
			for _, c := range rep.Candidates {
				w := c.Witness
				switch w.Kind {
				case "observed":
					if !c.Observed || len(w.Regions) != 2 {
						t.Fatalf("%s seed %d: malformed observed witness %+v", name, seed, w)
					}
				case "reordered":
					if c.Observed || len(w.Regions) < 2 {
						t.Fatalf("%s seed %d: malformed reordered witness %+v", name, seed, w)
					}
					first, last := w.Regions[0], w.Regions[len(w.Regions)-1]
					if last-first > rep.Window {
						t.Fatalf("%s seed %d: witness spans %d > window %d", name, seed, last-first, rep.Window)
					}
					laterTID := exec.Regions[last].TID
					for i, g := range w.Regions {
						if g < first || g > last {
							t.Fatalf("%s seed %d: witness region %d outside [%d,%d]", name, seed, g, first, last)
						}
						if i > 0 && exec.Regions[g].TID != laterTID {
							t.Fatalf("%s seed %d: witness chain region %d belongs to thread %d, want %d",
								name, seed, g, exec.Regions[g].TID, laterTID)
						}
						if i > 0 && g <= w.Regions[i-1] {
							t.Fatalf("%s seed %d: witness regions not ascending: %v", name, seed, w.Regions)
						}
					}
				default:
					t.Fatalf("%s seed %d: unknown witness kind %q", name, seed, w.Kind)
				}
			}
		}
	}
}

// TestWindowBound pins the window as the search's reach: at windows 1,
// 4 and the default, over the racy counter and the lock hand-off, every
// reordered witness spans at most the window, and every candidate a
// narrower window finds (keyed by sites and region pair) a wider one
// finds too.
func TestWindowBound(t *testing.T) {
	type key struct {
		sites hb.SitePair
		a, b  int
	}
	windows := []int{1, 4, predict.DefaultWindow}
	reordered := make([]int, len(windows))
	for _, shape := range []struct{ name, src string }{
		{"racy-counter", shapes["racy-counter"]},
		{"lock hand-off", lockHandoff},
	} {
		for seed := int64(1); seed <= 20; seed++ {
			exec, _ := analyze(t, shape.src, seed)
			var narrower map[key]bool
			for i, w := range windows {
				rep := predict.Run(exec, predict.Options{Window: w})
				if rep.Window != w {
					t.Fatalf("%s seed %d: window %d reported as %d", shape.name, seed, w, rep.Window)
				}
				found := map[key]bool{}
				for _, c := range rep.Candidates {
					found[key{c.Sites, c.Instance.RegionA.Global, c.Instance.RegionB.Global}] = true
					if c.Witness.Kind != "reordered" {
						continue
					}
					reordered[i]++
					if span := c.Witness.Regions[len(c.Witness.Regions)-1] - c.Witness.Regions[0]; span > w {
						t.Fatalf("%s seed %d window %d: witness %v spans %d regions",
							shape.name, seed, w, c.Witness.Regions, span)
					}
				}
				for k := range narrower {
					if !found[k] {
						t.Fatalf("%s seed %d: window %d lost candidate %s regions %d %d found at window %d",
							shape.name, seed, w, k.sites, k.a, k.b, windows[i-1])
					}
				}
				narrower = found
			}
		}
	}
	// The bound must bind: the default window admits reordered witnesses
	// that window 1 excludes.
	if last := len(windows) - 1; reordered[0] >= reordered[last] {
		t.Fatalf("vacuous: reordered witnesses at windows %v: %v", windows, reordered)
	}
	t.Logf("reordered witnesses at windows %v: %v", windows, reordered)
}

// TestNewReportSubtractsObserved: NewReport must contain exactly the
// candidate site pairs the observed report lacks, grouped and sorted.
func TestNewReportSubtractsObserved(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		exec, races := analyze(t, shapes["racy-counter"], seed)
		rep := predict.Run(exec, predict.Options{})
		nr := rep.NewReport(races)
		for _, race := range nr.Races {
			if races.Race(race.Sites) != nil {
				t.Fatalf("seed %d: NewReport contains observed race %s", seed, race.Sites)
			}
			if len(race.Instances) == 0 {
				t.Fatalf("seed %d: predicted-new race %s has no instances", seed, race.Sites)
			}
		}
		for i := 1; i < len(nr.Races); i++ {
			a, b := nr.Races[i-1].Sites, nr.Races[i].Sites
			if a.A > b.A || (a.A == b.A && a.B >= b.B) {
				t.Fatalf("seed %d: NewReport races not strictly sorted", seed)
			}
		}
	}
}

// TestMetricsPublished: the predict.* counter family lands in the
// registry and agrees with the report.
func TestMetricsPublished(t *testing.T) {
	exec, _ := analyze(t, shapes["racy-counter"], 2)
	reg := obs.NewRegistry()
	rep := predict.Run(exec, predict.Options{Metrics: reg})
	snap := reg.Snapshot()
	if got := snap.Counters["predict.candidates"]; got != uint64(len(rep.Candidates)) {
		t.Fatalf("predict.candidates = %d, want %d", got, len(rep.Candidates))
	}
	if snap.Counters["predict.executions"] != 1 {
		t.Fatalf("predict.executions = %d, want 1", snap.Counters["predict.executions"])
	}
	if got := snap.Counters["predict.blocks"]; got != uint64(rep.Blocks) {
		t.Fatalf("predict.blocks = %d, want %d", got, rep.Blocks)
	}
}

// lockHandoff has each worker take the same lock once: the writer stores
// x inside its critical section, the reader loads x after leaving its
// own. A witness that hoists the reader's critical section right after
// the writer's store region would acquire m while the writer holds it.
const lockHandoff = `
.entry main
.word x 0
.word m 0
writer:
  ldi r3, m
  lock [r3+0]
  ldi r4, x
hst:
  st [r4+0], r4
  unlock [r3+0]
  ldi r1, 0
  sys exit
reader:
  ldi r3, m
  lock [r3+0]
  nop
  unlock [r3+0]
  ldi r4, x
hld:
  ld r5, [r4+0]
  ldi r1, 0
  sys exit
main:
  ldi r1, writer
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, reader
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`

// witnessLockError replays lock ownership along a reordered witness,
// independently of the solver: the recorded prefix (every region before
// the first racing one), then the first racing region, the hoisted chain
// and the second racing region, applying each region's opening lock or
// unlock. It reports the first region that opens with lock L while
// another thread holds L.
func witnessLockError(exec *replay.Execution, w predict.Witness) error {
	owner := map[uint64]int{}
	order := make([]int, 0, w.Regions[0]+len(w.Regions))
	for g := 0; g < w.Regions[0]; g++ {
		order = append(order, g)
	}
	for _, g := range append(order, w.Regions...) {
		r := exec.Regions[g]
		switch r.StartKind {
		case trace.SeqLock:
			if tid, ok := owner[r.SyncAddr]; ok && tid != r.TID {
				return fmt.Errorf("region %d (thread %d) locks %#x, which thread %d holds", g, r.TID, r.SyncAddr, tid)
			}
			owner[r.SyncAddr] = r.TID
		case trace.SeqUnlock:
			delete(owner, r.SyncAddr)
		}
	}
	return nil
}

// TestReorderedWitnessesRespectHeldLocks: the solver checks the hoisted
// chain's locks against the lock table after the first racing region's
// opening synchronization. A region opened by "lock m" still holds m at
// the hoist point, and one opened by "unlock m" has released it, so
// every reordered witness of the lock hand-off must pass the independent
// lock replay, and some must exist.
func TestReorderedWitnessesRespectHeldLocks(t *testing.T) {
	reordered := 0
	for seed := int64(1); seed <= 200; seed++ {
		exec, _ := analyze(t, lockHandoff, seed)
		for _, c := range predict.Run(exec, predict.Options{}).Candidates {
			if c.Witness.Kind != "reordered" {
				continue
			}
			reordered++
			if err := witnessLockError(exec, c.Witness); err != nil {
				t.Fatalf("seed %d: witness %v cannot execute: %v", seed, c.Witness.Regions, err)
			}
		}
	}
	if reordered == 0 {
		t.Fatal("no reordered witness in seeds 1-200: the test is vacuous")
	}
}
