package hb_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/progen"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/workloads"
)

// offlineSitePairs returns the offline detector's race identities for one
// recorded execution, sorted for set comparison.
func offlineSitePairs(t *testing.T, rep *hb.Report) []hb.SitePair {
	t.Helper()
	pairs := make([]hb.SitePair, 0, len(rep.Races))
	for _, race := range rep.Races {
		pairs = append(pairs, race.Sites)
	}
	sortPairs(pairs)
	return pairs
}

func sortPairs(pairs []hb.SitePair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
}

// recordBoth records src once with the online detector attached and runs
// the offline detector over the same log.
func recordBoth(t *testing.T, src string, seed int64) (*hb.OnlineReport, *hb.Report) {
	t.Helper()
	prog, err := asm.Assemble("online", src)
	if err != nil {
		t.Fatal(err)
	}
	log, _, rep, err := record.RunOnline(prog, machine.Config{Seed: seed}, record.OnlineConfig{Detect: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("Detect:true returned a nil online report")
	}
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep, hb.Detect(exec)
}

// assertAgreement checks the online verdict — and the exact racy
// site-pair set — against the offline detector's report.
func assertAgreement(t *testing.T, label string, online *hb.OnlineReport, offline *hb.Report) {
	t.Helper()
	if online.RaceFree != (len(offline.Races) == 0) {
		t.Fatalf("%s: online race_free=%v but offline found %d races",
			label, online.RaceFree, len(offline.Races))
	}
	got := append([]hb.SitePair(nil), online.Races...)
	sortPairs(got)
	want := offlineSitePairs(t, offline)
	if len(got) != len(want) {
		t.Fatalf("%s: online saw %d racy site pairs, offline %d\nonline:  %v\noffline: %v",
			label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: site pair %d differs: online %v offline %v", label, i, got[i], want[i])
		}
	}
}

const racyCounterSrc = `
.entry main
.word g 0
worker:
  ldi r2, g
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  sys exit
main:
  ldi r1, worker
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

const lockedCounterSrc = `
.entry main
.word g 0
.word mu 0
worker:
  ldi r2, mu
  lock [r2+0]
  ldi r4, g
  ld r3, [r4+0]
  addi r3, r3, 1
  st [r4+0], r3
  unlock [r2+0]
  sys exit
main:
  ldi r1, worker
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

const joinOrderedSrc = `
.entry main
.word g 0
worker:
  ldi r2, g
  ldi r3, 7
  st [r2+0], r3
  sys exit
main:
  ldi r1, worker
  sys spawn
  sys join
  ldi r2, g
  ld r3, [r2+0]
  halt
`

// spawnOrderedSrc writes g before spawning the reader: the writer's
// region ends at the spawn sequencer, whose timestamp starts the reader's
// first region, so the interval test finds no overlap.
const spawnOrderedSrc = `
.entry main
.word g 0
worker:
  ldi r2, g
  ld r3, [r2+0]
  sys exit
main:
  ldi r2, g
  ldi r3, 7
  st [r2+0], r3
  ldi r1, worker
  sys spawn
  sys join
  halt
`

// TestOnlineAgreesWithOfflineHandwritten pins the verdict and the racy
// site-pair set on the canonical shapes: a racy counter, the same
// counter under a lock, and a spawn/join-ordered handoff.
func TestOnlineAgreesWithOfflineHandwritten(t *testing.T) {
	cases := []struct {
		name string
		src  string
		racy bool
	}{
		{"racy-counter", racyCounterSrc, true},
		{"locked-counter", lockedCounterSrc, false},
		{"join-ordered", joinOrderedSrc, false},
		{"spawn-ordered", spawnOrderedSrc, false},
	}
	for _, tc := range cases {
		raced := false
		for seed := int64(1); seed <= 20; seed++ {
			online, offline := recordBoth(t, tc.src, seed)
			assertAgreement(t, tc.name, online, offline)
			raced = raced || !online.RaceFree
		}
		if raced != tc.racy {
			// Non-vacuousness: the racy counter must race under some
			// seed, and the synchronized shapes under none.
			t.Fatalf("%s: raced=%v across 20 seeds, want %v", tc.name, raced, tc.racy)
		}
	}
}

// generatedPrograms returns the 64 progen programs the agreement and
// stop-on-race tests sweep: every combination of workers, globals, locks
// and atomics the fuzz harness uses. Program i runs at scheduler seed i+1.
func generatedPrograms(t *testing.T) []*isa.Program {
	t.Helper()
	r := rand.New(rand.NewSource(20260808))
	progs := make([]*isa.Program, 64)
	for trial := range progs {
		cfg := progen.BitsConfig(uint8(trial*4+1), r)
		src := progen.Generate(r, cfg)
		prog, err := asm.Assemble("gen", src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		progs[trial] = prog
	}
	return progs
}

// TestOnlineAgreesWithOfflineGenerated sweeps progen-generated programs
// and requires verdict and site-pair agreement on each.
func TestOnlineAgreesWithOfflineGenerated(t *testing.T) {
	raced, clean := 0, 0
	for trial, prog := range generatedPrograms(t) {
		seed := int64(trial + 1)
		log, _, rep, err := record.RunOnline(prog, machine.Config{Seed: seed}, record.OnlineConfig{Detect: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		exec, err := replay.Run(log, replay.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		offline := hb.Detect(exec)
		assertAgreement(t, fmt.Sprintf("trial %d", trial), rep, offline)
		if rep.RaceFree {
			clean++
		} else {
			raced++
		}
	}
	if raced == 0 || clean == 0 {
		t.Fatalf("sweep is vacuous: %d raced, %d race-free", raced, clean)
	}
}

// TestOnlineStopOnRacePinned pins *when* the detector finds a race, which
// the agreement tests cannot see: they compare final race sets only.
// With StopOnFirstRace the machine stops at the quantum boundary after
// the first race, so a race found one quantum earlier or later changes
// the retired count and the log. Browse records a key frame at every
// instruction and service one every 512, so the pins also cover the
// frames a stopped log keeps. Every recording must match
// testdata/stop_on_race.txt.
func TestOnlineStopOnRacePinned(t *testing.T) {
	want := readStopOnRacePins(t)
	type pinned struct {
		label string
		prog  *isa.Program
		cfg   machine.Config
		oc    record.OnlineConfig
	}
	var runs []pinned
	for trial, prog := range generatedPrograms(t) {
		runs = append(runs, pinned{fmt.Sprintf("gen/%02d", trial), prog,
			machine.Config{Seed: int64(trial + 1)}, record.OnlineConfig{Detect: true, StopOnFirstRace: true}})
	}
	for _, sc := range []struct {
		s         workloads.Scenario
		keyFrames uint64
	}{{workloads.BrowseScenario(), 1}, {workloads.ServiceScenario(), 512}} {
		prog, err := sc.s.Program()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 16; seed++ {
			cfg := sc.s.Config()
			cfg.Seed = seed
			runs = append(runs, pinned{fmt.Sprintf("%s/%02d", sc.s.Name, seed), prog, cfg,
				record.OnlineConfig{Detect: true, StopOnFirstRace: true, KeyFrameInterval: sc.keyFrames}})
		}
	}
	if len(runs) != len(want) {
		t.Fatalf("%d recordings, %d pinned", len(runs), len(want))
	}
	stopped := 0
	for _, r := range runs {
		log, res, rep, err := record.RunOnline(r.prog, r.cfg, r.oc)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		got := fmt.Sprintf("%d %v %d %s", res.TotalSteps, res.Stopped, len(rep.Races), core.LogDigest(log))
		if got != want[r.label] {
			t.Errorf("%s: got %s\n\twant %s", r.label, got, want[r.label])
		}
		if res.Stopped {
			stopped++
		}
	}
	if stopped == 0 || stopped == len(runs) {
		t.Fatalf("pin is vacuous: %d of %d recordings stopped at a race", stopped, len(runs))
	}
}

// readStopOnRacePins parses testdata/stop_on_race.txt into label ->
// "steps stopped races digest".
func readStopOnRacePins(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "stop_on_race.txt"))
	if err != nil {
		t.Fatal(err)
	}
	pins := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label, rest, _ := strings.Cut(line, " ")
		pins[label] = rest
	}
	return pins
}

// TestOnlineStopOnFirstRace checks the early-exit policy: the truncated
// log is valid, the offline detector confirms a race on it, and the
// machine stopped before retiring the full run.
func TestOnlineStopOnFirstRace(t *testing.T) {
	prog, err := asm.Assemble("stop", racyCounterSrc)
	if err != nil {
		t.Fatal(err)
	}
	var full uint64
	for seed := int64(1); seed <= 50; seed++ {
		_, res, rep, err := record.RunOnline(prog, machine.Config{Seed: seed}, record.OnlineConfig{Detect: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RaceFree {
			continue
		}
		full = res.TotalSteps
		slog, sres, srep, err := record.RunOnline(prog, machine.Config{Seed: seed},
			record.OnlineConfig{Detect: true, StopOnFirstRace: true})
		if err != nil {
			t.Fatalf("seed %d: stop-on-race recording failed validation: %v", seed, err)
		}
		if srep.RaceFree {
			t.Fatalf("seed %d: stop-on-race run missed the race the full run saw", seed)
		}
		if !sres.Stopped || !srep.Stopped {
			t.Fatalf("seed %d: stop requested but machine did not report stopping (res=%v rep=%v)",
				seed, sres.Stopped, srep.Stopped)
		}
		if sres.TotalSteps > full {
			t.Fatalf("seed %d: stopped run retired %d > full run %d", seed, sres.TotalSteps, full)
		}
		exec, err := replay.Run(slog, replay.Options{})
		if err != nil {
			t.Fatalf("seed %d: truncated log failed to replay: %v", seed, err)
		}
		if len(hb.Detect(exec).Races) == 0 {
			t.Fatalf("seed %d: offline pass found no race in the stop-on-race log", seed)
		}
		return
	}
	t.Fatal("no seed raced; stop-on-race never exercised")
}

// TestOnlineMetricsPublished pins the detect.online.* counter names the
// docs and dashboards rely on, on both sides of the verdict: the racy
// counter at the first seed that races (seed 1 does not), and the locked
// counter, which never races.
func TestOnlineMetricsPublished(t *testing.T) {
	record1 := func(src string, seed int64) (*obs.Registry, *hb.OnlineReport) {
		t.Helper()
		prog, err := asm.Assemble("metrics", src)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		_, _, rep, err := record.RunOnlineInstrumented(prog, machine.Config{Seed: seed}, record.OnlineConfig{Detect: true}, reg)
		if err != nil {
			t.Fatal(err)
		}
		if reg.Counter("detect.online.executions").Value() != 1 {
			t.Errorf("seed %d: detect.online.executions not incremented", seed)
		}
		return reg, rep
	}

	raced := false
	for seed := int64(1); seed <= 50 && !raced; seed++ {
		reg, rep := record1(racyCounterSrc, seed)
		if rep.RaceFree {
			continue
		}
		raced = true
		if got := reg.Counter("detect.online.races").Value(); got != uint64(len(rep.Races)) || got == 0 {
			t.Errorf("seed %d: detect.online.races = %d on a run with %d racy pairs", seed, got, len(rep.Races))
		}
		if reg.Counter("detect.online.pairs_checked").Value() == 0 {
			t.Errorf("seed %d: detect.online.pairs_checked stayed zero", seed)
		}
		if reg.Counter("detect.online.race_free").Value() != 0 {
			t.Errorf("seed %d: detect.online.race_free incremented on a racy run", seed)
		}
	}
	if !raced {
		t.Fatal("the racy counter raced under none of seeds 1-50")
	}

	reg, rep := record1(lockedCounterSrc, 1)
	if !rep.RaceFree {
		t.Fatalf("locked counter raced online: %v", rep.Races)
	}
	if got := reg.Counter("detect.online.race_free").Value(); got != 1 {
		t.Errorf("detect.online.race_free = %d on a race-free run, want 1", got)
	}
	if got := reg.Counter("detect.online.races").Value(); got != 0 {
		t.Errorf("detect.online.races = %d on a race-free run, want 0", got)
	}
}

// TestOnlineWindowCacheSurvivesSweep drives the detector by hand so that
// watermark sweeps evict the only record on the window page the last
// access used, deleting the page. (The name is from the one-page cache
// that once sat in front of the page map, which a sweep had to clear.)
// The next access to that page must land in the window, not in the
// deleted page: thread 0 writes the address again, moves to another
// page, and thread 1's concurrent write must find thread 0's record and
// race with it. Each round has three sequencers, so over the rounds a
// sweep falls on every position of the round, whatever the sweep
// cadence.
func TestOnlineWindowCacheSurvivesSweep(t *testing.T) {
	prog, err := asm.Assemble("sweep", "main:\n  st [r2+0], r1\n  st [r2+0], r1\n  ld r1, [r2+64]\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	const addr = 0x1000
	reg := obs.NewRegistry()
	o := hb.NewOnline(prog, reg, false)
	o.ThreadStarted(0, 0)
	o.ThreadStarted(1, 1) // spawned by thread 0's sequencer at 1
	ts := uint64(1)
	o.Sequencer(0, ts)
	for round := 0; round < 200; round++ {
		o.Access(0, 0, addr, false, true)
		for _, tid := range []int{0, 1, 1} {
			ts++
			o.Sequencer(tid, ts)
		}
	}
	o.Access(0, 0, addr, false, true)
	o.Access(0, 2, addr+64, false, false)
	o.Access(1, 1, addr, false, true)
	rep := o.Report(false)
	if evicted := reg.Counter("detect.online.evicted").Value(); evicted == 0 {
		t.Fatal("no sweep evicted a record; the test no longer exercises the sweep")
	}
	if rep.RaceFree {
		t.Fatal("thread 1's write missed thread 0's concurrent write to the same address")
	}
}
