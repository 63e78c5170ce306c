package hb_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/predict"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/workloads"
)

// engineDump renders what hb.Detect, hb.DetectVC and predict.Run report
// on one execution: every race instance and every candidate with its
// witness.
func engineDump(rep *hb.Report, vc *hb.Report, vcErr error, pr *predict.Report) string {
	var b strings.Builder
	for _, r := range []*hb.Report{rep, vc} {
		if r == nil {
			fmt.Fprintf(&b, "vc error %v\n", vcErr)
			continue
		}
		fmt.Fprintf(&b, "races %d instances %d\n", len(r.Races), r.TotalInstances)
		for _, race := range r.Races {
			for _, in := range race.Instances {
				fmt.Fprintf(&b, "%s %+v %+v %d %d\n", race.Sites, in.First, in.Second, in.RegionA.Global, in.RegionB.Global)
			}
		}
	}
	fmt.Fprintf(&b, "blocks %d screened %d rejected %+v\n", pr.Blocks, pr.PairsScreened, pr.Rejected)
	for _, c := range pr.Candidates {
		fmt.Fprintf(&b, "%s %v %s %v %+v %+v\n", c.Sites, c.Observed, c.Witness.Kind, c.Witness.Regions, c.Instance.First, c.Instance.Second)
	}
	return b.String()
}

// TestEnginesShareIndexConcurrently runs hb.Detect, hb.DetectVC and
// predict.Run from separate goroutines on one fresh execution, so any of
// them may be the one that builds the execution's address index, and
// checks that each returns what it returns run serially on another
// replay of the same log (run it under -race).
func TestEnginesShareIndexConcurrently(t *testing.T) {
	scens := append(workloads.Scenarios(), workloads.BrowseScenario())
	for _, sc := range scens {
		prog, err := sc.Program()
		if err != nil {
			t.Fatal(err)
		}
		log, _, err := record.Run(prog, sc.Config())
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		fresh := func() *replay.Execution {
			exec, err := replay.Run(log, replay.Options{})
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			return exec
		}
		serial := fresh()
		vc, vcErr := hb.DetectVC(serial, nil)
		want := engineDump(hb.Detect(serial), vc, vcErr, predict.Run(serial, predict.Options{}))

		exec := fresh()
		var (
			wg  sync.WaitGroup
			rep *hb.Report
			pr  *predict.Report
		)
		wg.Add(3)
		go func() { defer wg.Done(); rep = hb.Detect(exec) }()
		go func() { defer wg.Done(); vc, vcErr = hb.DetectVC(exec, nil) }()
		go func() { defer wg.Done(); pr = predict.Run(exec, predict.Options{}) }()
		wg.Wait()
		if got := engineDump(rep, vc, vcErr, pr); got != want {
			t.Errorf("%s: concurrent engines disagree with serial ones:\n%s\nwant:\n%s", sc.Name, got, want)
		}
	}
}

// TestSearchCostIgnoresPrivateAddresses: once an execution's address
// index is built, the conflict search visits only the addresses two
// threads share, so padding a racy program with 1,000 addresses that one
// thread alone writes must not add a single allocation to hb.Detect or
// predict.Run.
func TestSearchCostIgnoresPrivateAddresses(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not exact under the race detector")
	}
	counter := `
.entry main
.word n 0
.space pad 1000
worker:
  ldi r2, 20
wloop:
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
` + strings.TrimSuffix(twoWorkers, "  halt\n")
	// After both joins, main writes every pad word: one more region's
	// worth of thread-local addresses, with the same schedule up to it.
	padding := `
  ldi r2, pad
  ldi r3, 1000
ploop:
  st [r2+0], r3
  addi r2, r2, 1
  addi r3, r3, -1
  bne r3, r0, ploop
  halt
`
	replayed := func(src string) *replay.Execution {
		prog, err := asm.Assemble("pad", src)
		if err != nil {
			t.Fatal(err)
		}
		log, _, err := record.Run(prog, machine.Config{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		exec, err := replay.Run(log, replay.Options{})
		if err != nil {
			t.Fatal(err)
		}
		exec.Memory() // build the index outside the measurement
		return exec
	}
	plain, padded := replayed(counter+"  halt\n"), replayed(counter+padding)
	if _, data := padded.Memory().Screen(); data < 1000 {
		t.Fatalf("padded run accessed %d addresses non-atomically, want over 1000", data)
	}
	if hb.Detect(plain).TotalInstances == 0 {
		t.Fatal("the counter does not race at this seed")
	}
	for _, e := range []struct {
		name string
		run  func(*replay.Execution)
	}{
		{"hb.Detect", func(exec *replay.Execution) { hb.Detect(exec) }},
		{"predict.Run", func(exec *replay.Execution) { predict.Run(exec, predict.Options{}) }},
	} {
		a := testing.AllocsPerRun(5, func() { e.run(plain) })
		b := testing.AllocsPerRun(5, func() { e.run(padded) })
		if a != b {
			t.Errorf("%s: %v allocations on the counter, %v with 1,000 private addresses", e.name, a, b)
		}
	}
	if a, b := hb.Detect(plain), hb.Detect(padded); a.TotalInstances != b.TotalInstances {
		t.Errorf("padding changed the races: %d instances, %d padded", a.TotalInstances, b.TotalInstances)
	}
}
