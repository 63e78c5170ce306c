package vproc

import "testing"

// TestOracleContinuesThroughUnknownReads reproduces the §4.2.1 situation:
// a benign race whose alternative order reads an address the recorded
// regions never captured. The base tool must declare a replay failure
// (and hence misclassify the race as potentially harmful); with the
// versioned-memory oracle the replay continues, the divergent path
// converges, and the instance classifies No-State-Change — the fix the
// paper says "additional support in iDNA" would enable.
func TestOracleContinuesThroughUnknownReads(t *testing.T) {
	// extra is initialized by main before any worker spawns, so its value
	// is on record — but the reader only touches it on the path it did
	// NOT take in the recording.
	src := `
.entry main
.word flag 0
.word extra 0
writer:
  ldi r6, 30
wwarm:
  addi r6, r6, -1
  bne r6, r0, wwarm
  ldi r2, flag
  ldi r3, 1
wstore:
  st [r2+0], r3
  ldi r1, 0
  sys exit
reader:
  ldi r2, flag
rload:
  ld r3, [r2+0]
  beq r3, r0, rskip
  ldi r4, extra
  ld r5, [r4+0]      ; only executed when the flag was seen set
rskip:
  ldi r3, 0
  ldi r5, 0
  ldi r1, 0
  sys exit
main:
  ldi r2, extra
  ldi r3, 99
  st [r2+0], r3
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
	sawBoth := false
	for seed := int64(1); seed <= 40 && !sawBoth; seed++ {
		exec, rep := pipeline(t, src, seed)
		oracle := exec.Memory()
		for _, race := range rep.Races {
			for _, inst := range race.Instances {
				// Only instances where the recorded reader took the skip
				// path expose the unknown read under the flipped order.
				base := Analyze(exec, pairOf(inst), Options{}, nil)
				withOracle := Analyze(exec, pairOf(inst), Options{Oracle: oracle}, nil)
				if base.Outcome == ReplayFailure && withOracle.Outcome == NoStateChange {
					sawBoth = true
				}
				// The oracle must never make things worse.
				if base.Outcome == NoStateChange && withOracle.Outcome != NoStateChange {
					t.Errorf("seed %d: oracle degraded outcome %v -> %v (%s)",
						seed, base.Outcome, withOracle.Outcome, withOracle.FailReason)
				}
			}
		}
	}
	if !sawBoth {
		t.Error("no instance showed replay-failure without oracle but no-state-change with it")
	}
}

// TestOracleLeavesControlFlowFailuresAlone: divergence into a
// synchronization instruction is not an unknown-address problem; the
// oracle must not change those verdicts.
func TestOracleLeavesControlFlowFailuresAlone(t *testing.T) {
	src := `
.entry main
.word flag 0
prod:
  ldi r6, 40
warm:
  addi r6, r6, -1
  bne r6, r0, warm
  ldi r4, flag
  ldi r5, 1
pset:
  st [r4+0], r5
  ldi r1, 0
  sys exit
waiter:
  ldi r4, flag
spin:
  ld r5, [r4+0]
  bne r5, r0, go
  sys yield
  jmp spin
go:
  ldi r1, 0
  sys exit
main:
  ldi r1, prod
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, waiter
  ldi r2, 0
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  halt
`
	checked := false
	for seed := int64(1); seed <= 40 && !checked; seed++ {
		exec, rep := pipeline(t, src, seed)
		oracle := exec.Memory()
		for _, race := range rep.Races {
			for _, inst := range race.Instances {
				base := Analyze(exec, pairOf(inst), Options{}, nil)
				if base.Outcome != ReplayFailure {
					continue
				}
				withOracle := Analyze(exec, pairOf(inst), Options{Oracle: oracle}, nil)
				if withOracle.Outcome != ReplayFailure {
					t.Errorf("seed %d: control-flow failure changed to %v with oracle", seed, withOracle.Outcome)
				}
				checked = true
			}
		}
	}
	if !checked {
		t.Skip("no control-flow replay failure observed on these seeds")
	}
}
