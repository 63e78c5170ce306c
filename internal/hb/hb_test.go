package hb_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/trace"
)

func analyze(t *testing.T, src string, seed int64) (*replay.Execution, *hb.Report) {
	t.Helper()
	prog, err := asm.Assemble("hb", src)
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

func TestDetectsRacyCounter(t *testing.T) {
	src := `
.entry main
.word n 0
worker:
  ldi r2, 20
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
` + twoWorkers
	found := false
	for seed := int64(1); seed <= 8 && !found; seed++ {
		_, rep := analyze(t, src, seed)
		for _, race := range rep.Races {
			s := race.Sites.String()
			if strings.Contains(s, "rread") || strings.Contains(s, "rwrite") {
				found = true
				if len(race.Instances) == 0 {
					t.Error("race with no instances")
				}
			}
		}
	}
	if !found {
		t.Error("racy counter not detected on any seed")
	}
}

func TestNoRacesUnderLock(t *testing.T) {
	src := `
.entry main
.word mu 0
.word n 0
worker:
  ldi r2, 25
wloop:
  ldi r3, mu
  lock [r3+0]
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  unlock [r3+0]
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
` + twoWorkers
	for seed := int64(1); seed <= 10; seed++ {
		_, rep := analyze(t, src, seed)
		if len(rep.Races) != 0 {
			t.Fatalf("seed %d: locked counter reported %d races: %v",
				seed, len(rep.Races), rep.Races[0].Sites)
		}
	}
}

func TestAtomicAccessesAreNotDataRaces(t *testing.T) {
	src := `
.entry main
.word n 0
worker:
  ldi r2, 25
  ldi r6, 1
wloop:
  ldi r4, n
  xadd r5, [r4+0], r6
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
` + twoWorkers
	for seed := int64(1); seed <= 10; seed++ {
		_, rep := analyze(t, src, seed)
		if len(rep.Races) != 0 {
			t.Fatalf("seed %d: atomic counter reported races", seed)
		}
	}
}

func TestSingleThreadNeverRaces(t *testing.T) {
	src := `
.word g 0
main:
  ldi r2, g
  ldi r1, 50
loop:
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  fence
  addi r1, r1, -1
  bne r1, r0, loop
  halt
`
	_, rep := analyze(t, src, 1)
	if len(rep.Races) != 0 {
		t.Fatalf("single-threaded program reported %d races", len(rep.Races))
	}
}

func TestSpawnJoinOrderSuppressesRaces(t *testing.T) {
	// Parent writes before spawn and reads after join; child writes in
	// between. Fully ordered: no races.
	src := `
.entry main
.word g 0
child:
  ldi r2, g
  ld r3, [r2+0]
  addi r3, r3, 5
  st [r2+0], r3
  ldi r1, 0
  sys exit
main:
  ldi r2, g
  ldi r3, 1
  st [r2+0], r3     ; before spawn
  ldi r1, child
  ldi r2, 0
  sys spawn
  sys join
  ldi r2, g
  ld r4, [r2+0]     ; after join
  halt
`
	for seed := int64(1); seed <= 10; seed++ {
		_, rep := analyze(t, src, seed)
		if len(rep.Races) != 0 {
			t.Fatalf("seed %d: spawn/join ordered program reported races: %v",
				seed, rep.Races[0].Sites)
		}
	}
}

func TestUnjoinedChildRacesWithParent(t *testing.T) {
	// Parent writes g concurrently with the child reading it — no join
	// before the parent's write.
	src := `
.entry main
.word g 0
.word hold 0
child:
  ldi r2, g
creread:
  ld r3, [r2+0]
  ldi r1, 0
  sys exit
main:
  ldi r1, child
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r2, g
  ldi r3, 9
mwrite:
  st [r2+0], r3
  mov r1, r6
  sys join
  halt
`
	found := false
	for seed := int64(1); seed <= 12 && !found; seed++ {
		_, rep := analyze(t, src, seed)
		for _, race := range rep.Races {
			s := race.Sites.String()
			if strings.Contains(s, "creread") && strings.Contains(s, "mwrite") {
				found = true
			}
		}
	}
	if !found {
		t.Error("parent/child race not detected on any seed")
	}
}

func TestInstanceDedupAndSitePairs(t *testing.T) {
	if hb.MakeSitePair("b", "a") != (hb.SitePair{A: "a", B: "b"}) {
		t.Error("hb.MakeSitePair should sort")
	}
	if hb.MakeSitePair("a", "b") != hb.MakeSitePair("b", "a") {
		t.Error("site pairs must be unordered")
	}
}

func TestVCDetectorAgreesOnOrderedPrograms(t *testing.T) {
	src := `
.entry main
.word mu 0
.word n 0
worker:
  ldi r2, 10
wloop:
  ldi r3, mu
  lock [r3+0]
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  unlock [r3+0]
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
` + twoWorkers
	for seed := int64(1); seed <= 6; seed++ {
		exec, rep := analyze(t, src, seed)
		vcRep, err := hb.DetectVC(exec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Races) != 0 || len(vcRep.Races) != 0 {
			t.Fatalf("seed %d: locked program raced (interval %d, vc %d)",
				seed, len(rep.Races), len(vcRep.Races))
		}
	}
}

func TestVCDetectorSupersetsIntervalDetector(t *testing.T) {
	// An unjoined child's store is unsynchronized with the parent's late
	// load, but the parent burns many sequencers first, so on most seeds
	// the child's region interval closes before the parent's load region
	// opens — the interval test misses the race, vector clocks keep it.
	src := `
.entry main
.word g 0
child:
  ldi r2, g
  ldi r3, 7
cwrite:
  st [r2+0], r3
  ldi r1, 0
  sys exit
main:
  ldi r1, child
  ldi r2, 0
  sys spawn
  fence
  fence
  fence
  fence
  fence
  fence
  fence
  fence
  ldi r2, g
mread:
  ld r4, [r2+0]
  halt
`
	foundGap := false
	for seed := int64(1); seed <= 40 && !foundGap; seed++ {
		exec, rep := analyze(t, src, seed)
		vcRep, err := hb.DetectVC(exec, nil)
		if err != nil {
			t.Fatal(err)
		}
		// VC must always find at least what the interval test finds.
		if vcRep.TotalInstances < rep.TotalInstances {
			t.Fatalf("seed %d: vc (%d) < interval (%d)", seed, vcRep.TotalInstances, rep.TotalInstances)
		}
		has := func(r *hb.Report) bool {
			for _, race := range r.Races {
				s := race.Sites.String()
				if strings.Contains(s, "cwrite") && strings.Contains(s, "mread") {
					return true
				}
			}
			return false
		}
		if !has(vcRep) {
			t.Fatalf("seed %d: vc detector missed the unsynchronized pair", seed)
		}
		if !has(rep) {
			foundGap = true // interval test missed it: the ablation gap
		}
	}
	if !foundGap {
		t.Error("no seed demonstrated the interval-vs-vc coverage gap")
	}
}

func TestReportRaceLookup(t *testing.T) {
	rep := &hb.Report{Races: []*hb.Race{{Sites: hb.SitePair{A: "x", B: "y"}}}}
	if rep.Race(hb.SitePair{A: "x", B: "y"}) == nil {
		t.Error("lookup failed")
	}
	if rep.Race(hb.SitePair{A: "q", B: "z"}) != nil {
		t.Error("phantom race")
	}
}

// TestDetectionDeterministic: the detector's output (race order, instance
// order, counts) must be identical across repeated runs — no map-iteration
// order may leak into results.
func TestDetectionDeterministic(t *testing.T) {
	src := `
.entry main
.word a 0
.word b 0
worker:
  ldi r2, a
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  ldi r2, b
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  ldi r1, 0
  sys exit
` + twoWorkers
	prog, err := asm.Assemble("det", src)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := record.Run(prog, machine.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := hb.Detect(exec)
	for round := 0; round < 5; round++ {
		again := hb.Detect(exec)
		if len(again.Races) != len(first.Races) || again.TotalInstances != first.TotalInstances {
			t.Fatalf("round %d: race/instance counts changed", round)
		}
		for i := range first.Races {
			a, b := first.Races[i], again.Races[i]
			if a.Sites != b.Sites || len(a.Instances) != len(b.Instances) {
				t.Fatalf("round %d: race %d differs", round, i)
			}
			for j := range a.Instances {
				x, y := a.Instances[j], b.Instances[j]
				if x.Addr != y.Addr || x.First != y.First || x.Second != y.Second {
					t.Fatalf("round %d: instance %d/%d differs", round, i, j)
				}
			}
		}
	}
}

// TestDetectionSurvivesSerialization: detecting races on a log that went
// through the binary format must give exactly the in-memory result.
func TestDetectionSurvivesSerialization(t *testing.T) {
	src := `
.entry main
.word n 0
worker:
  ldi r2, 12
wloop:
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  sys sysnop
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
` + twoWorkers
	prog, err := asm.Assemble("ser", src)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := record.Run(prog, machine.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	log2, _, err := trace.Decode(trace.MarshalV2(log), trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	execA, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	execB, err := replay.Run(log2, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := hb.Detect(execA), hb.Detect(execB)
	if len(a.Races) != len(b.Races) || a.TotalInstances != b.TotalInstances {
		t.Fatalf("serialization changed detection: %d/%d vs %d/%d",
			len(a.Races), a.TotalInstances, len(b.Races), b.TotalInstances)
	}
	for i := range a.Races {
		if a.Races[i].Sites != b.Races[i].Sites {
			t.Fatalf("race %d sites differ", i)
		}
	}
}

// TestDetectInstrumentedPublishesCounters pins the detect.* counter
// contract: an instrumented run on a racy program must publish every
// stage counter with values consistent with the report. (Guards the
// registry parameter against being shadowed inside the detector.)
func TestDetectInstrumentedPublishesCounters(t *testing.T) {
	src := `
.entry main
.word n 0
worker:
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  ldi r1, 0
  sys exit
` + twoWorkers
	prog, err := asm.Assemble("hb", src)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := record.Run(prog, machine.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep := hb.DetectInstrumented(exec, reg)
	snap := reg.Snapshot()
	if got := snap.Counters["detect.executions"]; got != 1 {
		t.Errorf("detect.executions = %d, want 1", got)
	}
	if got := snap.Counters["detect.races"]; got != uint64(len(rep.Races)) {
		t.Errorf("detect.races = %d, want %d", got, len(rep.Races))
	}
	if got := snap.Counters["detect.instances"]; got != uint64(rep.TotalInstances) {
		t.Errorf("detect.instances = %d, want %d", got, rep.TotalInstances)
	}
	if snap.Counters["detect.addresses_indexed"] == 0 {
		t.Error("detect.addresses_indexed not published")
	}
	if snap.Counters["detect.region_pairs_examined"] == 0 {
		t.Error("detect.region_pairs_examined not published")
	}
	// The same counters accumulate across the VC ablation.
	if _, err := hb.DetectVC(exec, reg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["detect.executions"]; got != 2 {
		t.Errorf("detect.executions after VC pass = %d, want 2", got)
	}
}
