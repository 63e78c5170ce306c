package racereplay

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/hb"
	"repro/internal/workloads"
)

const demoSrc = `
.entry main
.word g 0
worker:
  ldi r2, g
  addi r3, r1, 10
wstore:
  st [r2+0], r3
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, worker
  ldi r2, 1
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  halt
`

func TestPublicPipeline(t *testing.T) {
	prog, err := Assemble("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := Record(prog, Config{Seed: 6}, OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := Replay(log, nil)
	if err != nil {
		t.Fatal(err)
	}
	races := DetectRaces(exec, nil)
	cls := classify.Run(exec, races, Options{Scenario: "demo", Seed: 6})
	if len(cls.Races) != len(races.Races) {
		t.Errorf("classified %d of %d races", len(cls.Races), len(races.Races))
	}
}

func TestPublicAnalyzeSourceFindsHarmfulWriteWrite(t *testing.T) {
	found := false
	for seed := int64(1); seed <= 20 && !found; seed++ {
		res, err := AnalyzeSource("demo", demoSrc, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Classification.Races {
			if r.Verdict == PotentiallyHarmful && r.SC > 0 {
				found = true
				rep := RaceReport(r)
				if !strings.Contains(rep, "potentially-harmful") {
					t.Error("report missing verdict")
				}
			}
		}
	}
	if !found {
		t.Error("conflicting writers never classified harmful")
	}
}

// TestReproduceLineForInMemoryExecution: a race from AnalyzeSource was
// never written to a log, so its report names no command over a file
// that does not exist; it says how to record one instead.
func TestReproduceLineForInMemoryExecution(t *testing.T) {
	res, err := AnalyzeSource("demo", demoSrc, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classification.Races) == 0 {
		t.Fatal("demo recorded no race at seed 6")
	}
	for _, r := range res.Classification.Races {
		rep := RaceReport(r)
		_, line, ok := strings.Cut(rep, "reproduce: ")
		if !ok {
			t.Fatalf("no reproduce line:\n%s", rep)
		}
		line, _, _ = strings.Cut(line, "\n")
		if strings.HasPrefix(line, "racer ") {
			t.Errorf("reproduce line names a command over a log that does not exist: %s", line)
		}
		if !strings.Contains(line, "no recorded log") || !strings.Contains(line, "racer record -seed 6") {
			t.Errorf("reproduce line = %q, want it to say how to record a log", line)
		}
	}
}

func TestPublicLogRoundTrip(t *testing.T) {
	prog, err := Assemble("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := Record(prog, Config{Seed: 2}, OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, log); err != nil {
		t.Fatal(err)
	}
	log2, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeLog(log2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Log.Instructions() != log.Instructions() {
		t.Error("log round trip changed instruction count")
	}
	s := LogStats(log)
	if s.RawBytes == 0 || s.Instructions == 0 {
		t.Error("stats empty")
	}
}

func TestPublicSuiteAccessors(t *testing.T) {
	suite := workloads.Scenarios()
	if len(suite) != 18 {
		t.Errorf("suite scenarios = %d, want 18", len(suite))
	}
	names := map[string]bool{}
	for _, s := range suite {
		if names[s.Name] {
			t.Errorf("duplicate scenario %s", s.Name)
		}
		names[s.Name] = true
	}
}

func TestPublicDBWorkflow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.json")
	db := NewDB()
	var sites hb.SitePair
	res, err := AnalyzeSource("demo", demoSrc, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classification.Races) == 0 {
		t.Skip("no races on this seed")
	}
	sites = res.Classification.Races[0].Sites
	db.MarkBenign(sites, "test")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if !db2.IsMarkedBenign(sites) {
		t.Error("mark lost through save/load")
	}
}

func TestPublicVCAndLocksetDetectors(t *testing.T) {
	prog, err := Assemble("demo", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := Record(prog, Config{Seed: 6}, OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := Replay(log, nil)
	if err != nil {
		t.Fatal(err)
	}
	interval := DetectRaces(exec, nil)
	vc, err := DetectRacesVC(exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vc.TotalInstances < interval.TotalInstances {
		t.Error("vector-clock detector found less than the interval detector")
	}
	ls := DetectRacesLockset(exec)
	if len(interval.Races) > 0 && len(ls.Warnings) == 0 {
		t.Error("lockset baseline missed an unlocked racy variable")
	}
}
