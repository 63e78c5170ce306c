package vproc

import (
	"reflect"
	"testing"

	"repro/internal/replay"
)

// fpSrc races two workers on g (one store, one load) so every seed that
// interleaves them yields instances with non-trivial live-in memory.
const fpSrc = `
.entry main
.word g 5
.word h 9
worker:
  ldi r2, g
  ldi r3, h
  beq r1, r0, reader
  ldi r4, 41
wstore:
  st [r2+0], r4
  ld r5, [r3+0]
  ldi r1, 0
  sys exit
reader:
rload:
  ld r4, [r2+0]
  ld r5, [r3+0]
  ldi r1, 0
  sys exit
` + spawnTwoTail

// TestFingerprintDistinguishesLiveInMemory is the collision unit test
// the cache's soundness rests on: two instances whose live-in memory
// differs must not share a fingerprint, because the replay would read
// different values.
func TestFingerprintDistinguishesLiveInMemory(t *testing.T) {
	tested := false
	for seed := int64(1); seed <= 15 && !tested; seed++ {
		exec, rep := pipeline(t, fpSrc, seed)
		for _, race := range rep.Races {
			for _, inst := range race.Instances {
				pair := pairOf(inst)
				before := NewFingerprinter(exec).Instance(pair)

				// Change one live-in memory value the replay can read: on a
				// fresh replay, before it builds its memory history, change
				// the recorded access the live-in comes from.
				fresh, err := replay.Run(exec.Log, replay.Options{})
				if err != nil {
					t.Fatal(err)
				}
				src := liveInSource(fresh, fresh.Regions[pair.RegionA.Global])
				if src == nil {
					src = liveInSource(fresh, fresh.Regions[pair.RegionB.Global])
				}
				if src == nil {
					continue
				}
				src.Val++
				mut := pair
				mut.RegionA = fresh.Regions[pair.RegionA.Global]
				mut.RegionB = fresh.Regions[pair.RegionB.Global]
				after := NewFingerprinter(fresh).Instance(mut)

				if before == after {
					t.Fatalf("seed %d %s: fingerprint unchanged after changing live-in mem[0x%x]",
						seed, race.Sites, src.Addr)
				}
				tested = true
			}
		}
	}
	if !tested {
		t.Fatal("no instance with live-in memory was ever observed")
	}
}

// liveInSource returns the recorded access that r's live-in value of its
// first-touched address comes from: the last access to it by the latest
// earlier region, or else r's own first read of it. Nil when that live-in
// is unknown.
func liveInSource(exec *replay.Execution, r *replay.Region) *replay.Access {
	if len(r.Accesses) == 0 {
		return nil
	}
	addr := r.Accesses[0].Addr
	for g := r.Global - 1; g >= 0; g-- {
		accs := exec.Regions[g].Accesses
		for i := len(accs) - 1; i >= 0; i-- {
			if accs[i].Addr == addr {
				return &accs[i]
			}
		}
	}
	for i := range r.Accesses {
		if a := &r.Accesses[i]; a.Addr == addr && !a.IsWrite {
			return a
		}
	}
	return nil
}

// TestFingerprintCanonicalizesPairOrder: the fingerprint is a property
// of the instance, not of how the caller ordered the regions — swapping
// A and B (with their indices and PCs) must hash identically, exactly
// as Analyze canonicalizes before replaying.
func TestFingerprintCanonicalizesPairOrder(t *testing.T) {
	checked := false
	for seed := int64(1); seed <= 10 && !checked; seed++ {
		exec, rep := pipeline(t, fpSrc, seed)
		fper := NewFingerprinter(exec)
		for _, race := range rep.Races {
			for _, inst := range race.Instances {
				pair := pairOf(inst)
				swapped := RacePair{
					RegionA: pair.RegionB, RegionB: pair.RegionA,
					IdxA: pair.IdxB, IdxB: pair.IdxA,
					PCA: pair.PCB, PCB: pair.PCA,
					Addr: pair.Addr,
				}
				if fper.Instance(pair) != fper.Instance(swapped) {
					t.Fatalf("seed %d %s: swapped pair fingerprints differ", seed, race.Sites)
				}
				checked = true
			}
		}
	}
	if !checked {
		t.Fatal("no race instance was ever observed")
	}
}

// TestEqualFingerprintsEqualResults pins the cache's contract on real
// executions: within and across recordings, instances that hash equal
// must analyze equal — the invariant that makes returning a cached
// result verbatim sound.
func TestEqualFingerprintsEqualResults(t *testing.T) {
	type entry struct {
		res   Result
		seed  int64
		sites string
	}
	byFp := make(map[Fingerprint]entry)
	collisions := 0
	for _, seed := range []int64{3, 3, 5, 7} { // seed 3 twice: identical recordings must collide
		exec, rep := pipeline(t, fpSrc, seed)
		fper := NewFingerprinter(exec)
		for _, race := range rep.Races {
			for _, inst := range race.Instances {
				pair := pairOf(inst)
				fp := fper.Instance(pair)
				res := Analyze(exec, pair, Options{}, nil)
				if prev, ok := byFp[fp]; ok {
					collisions++
					if !reflect.DeepEqual(prev.res, res) {
						t.Fatalf("fingerprint collision with unequal results:\n seed %d %s: %+v\n seed %d %s: %+v",
							prev.seed, prev.sites, prev.res, seed, race.Sites, res)
					}
				} else {
					byFp[fp] = entry{res, seed, race.Sites.String()}
				}
			}
		}
	}
	if collisions == 0 {
		t.Fatal("re-recording the same seed produced no equal fingerprints — cache would never hit")
	}
}

// TestAnalyzeScratchMatchesAnalyzeOpts: Analyze with one Scratch reused
// across every instance must yield results deeply equal to Analyze with
// a nil scratch (fresh state per call) — the allocation-lean path cannot
// leak state between instances.
func TestAnalyzeScratchMatchesAnalyzeOpts(t *testing.T) {
	var sc Scratch
	instances := 0
	for seed := int64(1); seed <= 10; seed++ {
		exec, rep := pipeline(t, fpSrc, seed)
		for _, race := range rep.Races {
			for _, inst := range race.Instances {
				pair := pairOf(inst)
				fresh := Analyze(exec, pair, Options{}, nil)
				reused := Analyze(exec, pair, Options{}, &sc)
				if !reflect.DeepEqual(fresh, reused) {
					t.Fatalf("seed %d %s: scratch result %+v != fresh result %+v",
						seed, race.Sites, reused, fresh)
				}
				instances++
			}
		}
	}
	if instances == 0 {
		t.Fatal("no race instance was ever observed")
	}
}
