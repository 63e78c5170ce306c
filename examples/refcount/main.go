// Refcount: a faithful walk-through of the paper's Figure 2 — the
// reference-counting bug that motivated the whole system.
//
//	foo->refCnt--;
//	if (foo->refCnt == 0)
//	    free(foo);
//
// Two threads run this without synchronization. Most interleavings are
// lucky; a few double-free or use freed memory. This example records
// executions until one exposes the bug, shows the races the
// happens-before detector finds, and prints the §4.4 report of each
// harmful one: what happened when its instances were replayed in both
// orders, and the command that replays them again. It writes that
// execution's log, refcount-<seed>.rlog, to the working directory, and
// the command replays it.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	racereplay "repro"
)

const src = `
.entry main
.word foo 0

worker:
  ldi r2, foo
  ld r4, [r2+0]       ; r4 = the shared object
rc_load:
  ld r5, [r4+0]       ; load refCnt
  addi r5, r5, -1
rc_store:
  st [r4+0], r5       ; store refCnt-1  (not atomic with the load!)
rc_check:
  ld r6, [r4+0]       ; re-read, as in Figure 2
  bne r6, r0, done
  mov r1, r4
  sys free            ; free(foo) when the count hits zero
done:
  ldi r1, 0
  sys exit

main:
  ldi r1, 1
  sys alloc           ; the object: one word holding the refcount
  mov r4, r1
  ldi r3, 2
  st [r4+0], r3       ; refCnt = 2 (one reference per thread)
  ldi r2, foo
  st [r2+0], r4
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, worker
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  halt
`

func main() {
	prog, err := racereplay.Assemble("refcount", src)
	if err != nil {
		log.Fatal(err)
	}
	// Scan a few interleavings, exactly like running several test
	// scenarios: the more instances observed, the more likely one exposes
	// the bug (§5.3 of the paper).
	for seed := int64(1); seed <= 12; seed++ {
		// Samples carry the log's file name, so each report's reproduce
		// line runs racer classify over the log written below.
		path := fmt.Sprintf("refcount-%d.rlog", seed)
		res, err := racereplay.Analyze(prog, racereplay.Config{Seed: seed},
			racereplay.Options{Scenario: path, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Classification.Races) == 0 {
			continue
		}
		fmt.Printf("=== seed %d: %d races, %d instances\n",
			seed, len(res.Classification.Races), res.Classification.TotalInstances())
		exposed := false
		for _, race := range res.Classification.Races {
			fmt.Printf("  %-50s %v  (nsc %d / sc %d / rf %d)\n",
				race.Sites, race.Verdict, race.NSC, race.SC, race.RF)
			exposed = exposed || race.Verdict == racereplay.PotentiallyHarmful
		}
		if !exposed {
			continue
		}
		var buf bytes.Buffer
		if err := racereplay.WriteLog(&buf, res.Log); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		for _, race := range res.Classification.Races {
			if race.Verdict == racereplay.PotentiallyHarmful {
				fmt.Print("\n", racereplay.RaceReport(race))
			}
		}
		fmt.Println("\nverdict: the refcount race is potentially harmful — exactly Figure 2.")
		fmt.Println("A replay failure is the re-ordered thread heading into the free path,")
		fmt.Println("the paper's signal for a harmful race.")
		return
	}
	fmt.Println("no harmful instance exposed on these seeds; try more scenarios")
}
