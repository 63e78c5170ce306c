// Timetravel: reverse execution over a replay log — the iDNA facility the
// paper couples with its race reports ("time travel debugging", §1).
//
// A replay log pins down the whole execution, so "stepping backwards" is a
// query on one replay's memory history, not a re-execution. This example
// records a producer/consumer run, replays it once, then walks the shared
// counter's value backwards in time to find the region that first made it
// non-zero — the kind of root-cause search a developer does from a race
// report.
package main

import (
	"fmt"
	"log"

	racereplay "repro"
)

const src = `
.entry main
.word counter 0

producer:
  ldi r5, 6
ploop:
  ldi r2, counter
  ld r3, [r2+0]
  addi r3, r3, 10
  st [r2+0], r3
  sys sysnop           ; a sequencer per step: visible time-travel points
  addi r5, r5, -1
  bne r5, r0, ploop
  ldi r1, 0
  sys exit

main:
  ldi r1, producer
  ldi r2, 0
  sys spawn
  sys join
  ldi r2, counter
  ld r1, [r2+0]
  sys print
  halt
`

func main() {
	prog, err := racereplay.Assemble("timetravel", src)
	if err != nil {
		log.Fatal(err)
	}
	rlog, _, err := racereplay.Record(prog, racereplay.Config{Seed: 2}, racereplay.OnlineConfig{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	full, err := racereplay.Replay(rlog, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d instructions in %d sequencing regions; final output %v\n",
		rlog.Instructions(), len(full.Regions), full.Thread(0).Output)

	// Locate the counter's address from the program's data segment.
	var counterAddr uint64
	for a := range prog.Data {
		counterAddr = a
	}

	// Walk backwards: read the counter after ever-shorter prefixes.
	fmt.Println("\ntime travel (region prefix -> counter value):")
	mem := full.Memory()
	last := ^uint64(0)
	for n := len(full.Regions); n >= 1; n-- {
		v, _ := mem.Before(counterAddr, n)
		if v != last {
			fmt.Printf("  after %2d regions: counter = %d\n", n, v)
			last = v
		}
		if v == 0 {
			fmt.Printf("\nroot cause window: region %d is the first that writes the counter\n", n+1)
			break
		}
	}
}
