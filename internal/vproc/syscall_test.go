package vproc

import (
	"strings"
	"testing"
)

// Regions whose opening instruction is a syscall, lock, or unlock must
// replay through the opener. These tests put the racing accesses in such
// regions.

func TestRegionOpenedByUnlockAndLock(t *testing.T) {
	// The racing store sits right after an unlock, so its region's opener
	// is the unlock; the reader's racing load sits right after a lock.
	src := `
.entry main
.word mu 0
.word g 0
writer:
  ldi r4, mu
  lock [r4+0]
  ldi r2, g
  unlock [r4+0]
wst:
  st [r2+0], r2
  ldi r1, 0
  sys exit
reader:
  ldi r4, mu
  ldi r2, g
  lock [r4+0]
rld:
  ld r3, [r2+0]
  unlock [r4+0]
  ldi r1, 0
  sys exit
main:
  ldi r1, writer
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, reader
  ldi r2, 0
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  halt
`
	// The wst race needs the writer's store to overlap the reader's
	// critical section; seed 39 is the first of 1–64 whose schedule does.
	analyzed := false
	for seed := int64(1); seed <= 64 && !analyzed; seed++ {
		exec, rep := pipeline(t, src, seed)
		for _, race := range rep.Races {
			if !strings.Contains(race.Sites.String(), "wst") {
				continue
			}
			for _, inst := range race.Instances {
				res := Analyze(exec, pairOf(inst), Options{}, nil)
				// Whatever the verdict, the opener must not break replay
				// with a bogus reason.
				if res.Outcome == ReplayFailure &&
					strings.Contains(res.FailReason, "unreplayable") {
					t.Errorf("seed %d: opener syscall failed: %s", seed, res.FailReason)
				}
				analyzed = true
			}
		}
	}
	if !analyzed {
		t.Fatal("lock-region race never observed in seeds 1-64")
	}
}

func TestRegionOpenedByAllocAndRand(t *testing.T) {
	// Each worker's racing store sits in a region opened by a syscall
	// with a logged result (alloc / rand); the vproc must inject or
	// simulate them and still line up the racing instruction.
	src := `
.entry main
.word g 0
alloco:
  ldi r1, 1
  sys alloc
  mov r5, r1
  ldi r2, g
ast:
  st [r2+0], r2
  ldi r1, 0
  sys exit
rando:
  sys rand
  andi r6, r1, 7
  ldi r2, g
rld:
  ld r3, [r2+0]
  ldi r1, 0
  sys exit
main:
  ldi r1, alloco
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, rando
  ldi r2, 0
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  halt
`
	analyzed := false
	for seed := int64(1); seed <= 30 && !analyzed; seed++ {
		exec, rep := pipeline(t, src, seed)
		for _, race := range rep.Races {
			for _, inst := range race.Instances {
				res := Analyze(exec, pairOf(inst), Options{}, nil)
				if res.Outcome == ReplayFailure &&
					(strings.Contains(res.FailReason, "unreplayable") ||
						strings.Contains(res.FailReason, "diverged before")) {
					t.Errorf("seed %d %v: %s", seed, race.Sites, res.FailReason)
				}
				analyzed = true
			}
		}
	}
	if !analyzed {
		t.Skip("no race observed")
	}
}

func TestDoubleFreeInAlternativeOrderFaults(t *testing.T) {
	// The freer releases a block and raises a plain flag; the cleaner
	// frees the block only if the flag is still down. If the recorded run
	// had the cleaner skip (flag already up), the alternative order sends
	// it into a second free of the same block: a bad-free replay failure.
	src := `
.entry main
.word blk 0
.word freed 0
main:
  ldi r1, 1
  sys alloc
  mov r4, r1
  ldi r2, blk
  st [r2+0], r4
  ldi r1, freer
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, cleaner
  ldi r2, 0
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  halt
freer:
  ldi r2, blk
  ld r4, [r2+0]
  mov r1, r4
  sys free
  ldi r2, freed
  ldi r3, 1
fst:
  st [r2+0], r3
  ldi r1, 0
  sys exit
cleaner:
  ldi r6, 25
cwarm:
  addi r6, r6, -1
  bne r6, r0, cwarm
  ldi r2, freed
cld:
  ld r3, [r2+0]
  bne r3, r0, cskip
  ldi r2, blk
  ld r4, [r2+0]
  mov r1, r4
  sys free
cskip:
  ldi r3, 0
  ldi r4, 0
  ldi r1, 0
  sys exit
`
	sawBadFree := false
	for seed := int64(1); seed <= 40 && !sawBadFree; seed++ {
		exec, rep := pipeline(t, src, seed)
		for _, race := range rep.Races {
			if !strings.Contains(race.Sites.String(), "fst") {
				continue
			}
			for _, inst := range race.Instances {
				res := Analyze(exec, pairOf(inst), Options{}, nil)
				if res.Outcome == ReplayFailure {
					sawBadFree = true
				}
			}
		}
	}
	if !sawBadFree {
		t.Error("double-free divergence never produced a replay failure")
	}
}

func TestPrintOpenerRegionsCompareOutput(t *testing.T) {
	// The racing load sits in a region opened by a print; the printed
	// value enters the vproc output stream.
	src := `
.entry main
.word g 0
writer:
  ldi r2, g
  ldi r3, 9
wst:
  st [r2+0], r3
  ldi r1, 0
  sys exit
logger:
  ldi r1, 1
  sys print
  ldi r2, g
lld:
  ld r7, [r2+0]
  ldi r1, 0
  sys exit
main:
  ldi r1, writer
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, logger
  ldi r2, 0
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  halt
`
	analyzed := false
	for seed := int64(1); seed <= 30 && !analyzed; seed++ {
		exec, rep := pipeline(t, src, seed)
		for _, race := range rep.Races {
			if !strings.Contains(race.Sites.String(), "lld") {
				continue
			}
			for _, inst := range race.Instances {
				res := Analyze(exec, pairOf(inst), Options{}, nil)
				if res.Outcome == ReplayFailure {
					t.Errorf("seed %d: print opener broke replay: %s", seed, res.FailReason)
				}
				analyzed = true
			}
		}
	}
	if !analyzed {
		t.Skip("race never observed in the print-opened region")
	}
}

func TestGettidYieldNopOpeners(t *testing.T) {
	src := `
.entry main
.word g 0
wa:
  sys gettid
  ldi r2, g
awr:
  st [r2+0], r2
  ldi r1, 0
  sys exit
wb:
  sys yield
  sys sysnop
  ldi r2, g
bld:
  ld r3, [r2+0]
  ldi r1, 0
  sys exit
main:
  ldi r1, wa
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, wb
  ldi r2, 0
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  halt
`
	for seed := int64(1); seed <= 30; seed++ {
		exec, rep := pipeline(t, src, seed)
		for _, race := range rep.Races {
			for _, inst := range race.Instances {
				res := Analyze(exec, pairOf(inst), Options{}, nil)
				if res.Outcome == ReplayFailure && strings.Contains(res.FailReason, "unreplayable") {
					t.Errorf("seed %d: %s", seed, res.FailReason)
				}
			}
		}
	}
}
