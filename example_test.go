package racereplay_test

import (
	"fmt"
	"log"

	racereplay "repro"
)

// Two workers store different values to the same global without
// synchronization; a third reads it. Everything below is deterministic:
// the machine, the recorder, and the analysis are all seeded.
const exampleSrc = `
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

// ExampleAnalyzeSource runs the whole pipeline — record, replay, detect,
// classify — in one call.
func ExampleAnalyzeSource() {
	res, err := racereplay.AnalyzeSource("demo", exampleSrc, 6)
	if err != nil {
		log.Fatal(err)
	}
	for _, race := range res.Classification.Races {
		fmt.Printf("%s -> %v\n", race.Sites, race.Verdict)
	}
	// Output:
	// demo:wstore <-> demo:wstore -> potentially-harmful
}

// ExampleReplay shows the record/replay split: the log is self-contained
// and replays deterministically.
func ExampleReplay() {
	prog, err := racereplay.Assemble("demo", exampleSrc)
	if err != nil {
		log.Fatal(err)
	}
	rlog, _, err := racereplay.Record(prog, racereplay.Config{Seed: 6}, racereplay.OnlineConfig{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	exec, err := racereplay.Replay(rlog, nil)
	if err != nil {
		log.Fatal(err)
	}
	races := racereplay.DetectRaces(exec, nil)
	fmt.Printf("%d threads, %d unique races\n", len(exec.Threads), len(races.Races))
	// Output:
	// 3 threads, 1 unique races
}

// ExampleExecution_Memory demonstrates time travel: one replay's memory
// history answers what memory held after any prefix of the region
// schedule.
func ExampleExecution_Memory() {
	src := `
.word counter 0
main:
  ldi r2, counter
  ldi r3, 1
  st [r2+0], r3
  fence
  ldi r3, 2
  st [r2+0], r3
  fence
  halt
`
	prog, err := racereplay.Assemble("tt", src)
	if err != nil {
		log.Fatal(err)
	}
	rlog, _, err := racereplay.Record(prog, racereplay.Config{Seed: 1}, racereplay.OnlineConfig{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	full, err := racereplay.Replay(rlog, nil)
	if err != nil {
		log.Fatal(err)
	}
	counterAddr := uint64(0x1000)
	for _, n := range []int{len(full.Regions), 2, 1} {
		v, _ := full.Memory().Before(counterAddr, n)
		fmt.Printf("after %d regions: counter = %d\n", n, v)
	}
	// Output:
	// after 3 regions: counter = 2
	// after 2 regions: counter = 2
	// after 1 regions: counter = 1
}
