// Package workloads provides the synthetic racy-program suite that stands
// in for the paper's 18 recorded executions of Windows Vista and Internet
// Explorer services (§5.1).
//
// The suite is built from parameterized templates — one family per benign
// category of Table 2 plus the harmful-race families of §5.2.4 — each
// instantiated with unique labels and globals so every instantiation
// contributes distinct static race sites. Templates carry ground-truth
// labels (the developer-intent verdict the paper obtained by manual
// triage) and the Table-1 group their races are expected to land in, which
// the census test and the paperbench harness check against the paper.
//
// Every scenario program is named "suite", so a race site like
// "suite:red03_store+0" identifies the same static race in whichever
// scenario it appears — races accumulate instances across executions
// exactly as in §5.2.1.
package workloads

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/classify"
	"repro/internal/isa"
	"repro/internal/machine"
)

// Category mirrors Table 2 plus a bucket for the real bugs.
type Category int

const (
	CatUserSync Category = iota
	CatDoubleCheck
	CatBothValid
	CatRedundantWrite
	CatDisjointBits
	CatApprox
	CatHarmful
)

var categoryNames = map[Category]string{
	CatUserSync:       "User Constructed Synchronization",
	CatDoubleCheck:    "Double Checks",
	CatBothValid:      "Both Values Valid",
	CatRedundantWrite: "Redundant Writes",
	CatDisjointBits:   "Disjoint Bit Manipulation",
	CatApprox:         "Approximate Computation",
	CatHarmful:        "Harmful",
}

func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Worker is one thread a template contributes to a scenario.
type Worker struct {
	Entry string // label of the worker's entry point
	Arg   int64  // initial r1
}

// Template is one racy code pattern instance.
type Template struct {
	Name        string // unique label/global prefix, e.g. "red03"
	Category    Category
	RealHarmful bool           // ground truth from "manual triage"
	ExpectGroup classify.Group // Table-1 row the template's races should land in
	Races       int            // unique static races the template contributes
	Appearances int            // how many scenarios include it
	Decls       string
	Init        string // assembly main runs before spawning any worker
	Code        string
	Workers     []Worker
}

// ProgName is the shared program name that keeps race sites stable across
// scenarios.
const ProgName = "suite"

// --- Template generators -------------------------------------------------

// redundantWrite: both workers store the value the global already holds
// (§5.4 category 4). One unique race (store vs store); always
// No-State-Change.
func redundantWrite(i int) Template {
	n := fmt.Sprintf("red%02d", i)
	iters := 1 + i%5
	v := 50 + i
	return Template{
		Name: n, Category: CatRedundantWrite,
		ExpectGroup: classify.GroupNoStateChange, Races: 1,
		Appearances: 1 + i%2,
		Decls:       fmt.Sprintf(".word %s_g %d\n", n, v),
		Code: fmt.Sprintf(`
%[1]s_worker:
  ldi r5, %[2]d
%[1]s_loop:
  ldi r2, %[1]s_g
  ldi r3, %[3]d
%[1]s_store:
  st [r2+0], r3
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, %[1]s_loop
  ldi r1, 0
  sys exit
`, n, iters, v),
		Workers: []Worker{{Entry: n + "_worker"}, {Entry: n + "_worker"}},
	}
}

// disjointBits: the workers OR disjoint bits into a shared word with a
// non-atomic read-modify-write instruction (§5.4 category 5). The two RMW
// instructions commute, so both orders agree: No-State-Change.
func disjointBits(i int) Template {
	n := fmt.Sprintf("disj%02d", i)
	iters := 2 + i%3
	bitA := (2 * i) % 60
	bitB := (2*i + 1) % 60
	return Template{
		Name: n, Category: CatDisjointBits,
		ExpectGroup: classify.GroupNoStateChange, Races: 1,
		Appearances: 2,
		Decls:       fmt.Sprintf(".word %s_flags 0\n", n),
		Code: fmt.Sprintf(`
%[1]s_worker:
  ldi r5, %[2]d
  ldi r3, 1
  shl r3, r3, r1
%[1]s_loop:
  ldi r2, %[1]s_flags
%[1]s_orm:
  orm [r2+0], r3
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, %[1]s_loop
  ldi r1, 0
  sys exit
`, n, iters),
		Workers: []Worker{{Entry: n + "_worker", Arg: int64(bitA)}, {Entry: n + "_worker", Arg: int64(bitB)}},
	}
}

// userSyncSpin: a hand-rolled completion signal — producer sets a flag
// with a plain store, the waiter spins on a plain load (§5.4 category 1).
// The happens-before detector must flag it (no sequencer orders the pair),
// but both orders converge: No-State-Change.
func userSyncSpin(i int) Template {
	n := fmt.Sprintf("usync%02d", i)
	return Template{
		Name: n, Category: CatUserSync,
		ExpectGroup: classify.GroupNoStateChange, Races: 1,
		Appearances: 2,
		Decls:       fmt.Sprintf(".word %s_flag 0\n", n),
		Code: fmt.Sprintf(`
%[1]s_prod:
  ldi r6, 30
%[1]s_warm:
  addi r6, r6, -1
  bne r6, r0, %[1]s_warm
  ldi r4, %[1]s_flag
  ldi r5, 1
%[1]s_set:
  st [r4+0], r5
  ldi r1, 0
  sys exit
%[1]s_wait:
  ldi r4, %[1]s_flag
%[1]s_spin:
  ld r5, [r4+0]
  beq r5, r0, %[1]s_spin
  ldi r1, 0
  sys exit
`, n),
		Workers: []Worker{{Entry: n + "_prod"}, {Entry: n + "_wait"}},
	}
}

// userSyncYield: the same hand-rolled signal, but the waiter yields
// between checks, so every check sits in its own sequencing region. When
// the classifier flips the order on a check that read 0, the waiter
// escapes the loop and runs off the recorded region: a replay failure.
// Real-benign — this is one of the §5.2.4 "replayer limitation"
// misclassifications.
func userSyncYield(i int) Template {
	n := fmt.Sprintf("uyield%02d", i)
	return Template{
		Name: n, Category: CatUserSync,
		ExpectGroup: classify.GroupReplayFailure, Races: 1,
		Appearances: 2,
		Decls:       fmt.Sprintf(".word %s_flag 0\n", n),
		Code: fmt.Sprintf(`
%[1]s_prod:
  ldi r6, 40
%[1]s_warm:
  addi r6, r6, -1
  bne r6, r0, %[1]s_warm
  ldi r4, %[1]s_flag
  ldi r5, 1
%[1]s_set:
  st [r4+0], r5
  ldi r1, 0
  sys exit
%[1]s_wait:
  ldi r4, %[1]s_flag
%[1]s_spin:
  ld r5, [r4+0]
  bne r5, r0, %[1]s_go
  sys yield
  jmp %[1]s_spin
%[1]s_go:
  ldi r1, 0
  sys exit
`, n),
		Workers: []Worker{{Entry: n + "_prod"}, {Entry: n + "_wait"}},
	}
}

// doubleCheckLazy: the racy fast check in front of lazy initialization —
// one thread lazily sets the flag, another reads it without
// synchronization. The check register dies before the region ends and
// the set is idempotent, so both orders agree: No-State-Change. One
// unique race.
func doubleCheckLazy(i int) Template {
	n := fmt.Sprintf("dclazy%02d", i)
	return Template{
		Name: n, Category: CatDoubleCheck,
		ExpectGroup: classify.GroupNoStateChange, Races: 1,
		Appearances: 2,
		Decls:       fmt.Sprintf(".word %s_inited 0\n", n),
		Code: fmt.Sprintf(`
%[1]s_setter:
  ldi r2, %[1]s_inited
  ld r3, [r2+0]
  bne r3, r0, %[1]s_sdone
  ldi r4, 1
%[1]s_set:
  st [r2+0], r4
%[1]s_sdone:
  ldi r3, 0
  ldi r4, 0
  ldi r1, 0
  sys exit
%[1]s_checker:
  ldi r2, %[1]s_inited
%[1]s_check:
  ld r3, [r2+0]
  bne r3, r0, %[1]s_cdone
%[1]s_cdone:
  ldi r3, 0
  ldi r1, 0
  sys exit
`, n),
		Workers: []Worker{{Entry: n + "_setter"}, {Entry: n + "_checker"}},
	}
}

// doubleCheckLock: the classic double-checked lock (§5.4 category 2). The
// unsynchronized fast-path read races with the store inside the lock; the
// alternative order diverges into (or around) the locked slow path, which
// the region never recorded: replay failure, real-benign.
func doubleCheckLock(i int) Template {
	n := fmt.Sprintf("dclock%02d", i)
	return Template{
		Name: n, Category: CatDoubleCheck,
		ExpectGroup: classify.GroupReplayFailure, Races: 1,
		Appearances: 2,
		Decls:       fmt.Sprintf(".word %s_mu 0\n.word %s_inited 0\n", n, n),
		Code: fmt.Sprintf(`
%[1]s_worker:
  ldi r2, %[1]s_inited
%[1]s_fast:
  ld r3, [r2+0]
  bne r3, r0, %[1]s_ready
  ldi r4, %[1]s_mu
  lock [r4+0]
  ld r3, [r2+0]
  bne r3, r0, %[1]s_unl
  ldi r5, 1
%[1]s_slow:
  st [r2+0], r5
%[1]s_unl:
  ldi r4, %[1]s_mu
  unlock [r4+0]
%[1]s_ready:
  ldi r3, 0
  ldi r5, 0
  ldi r1, 0
  sys exit
`, n),
		Workers: []Worker{{Entry: n + "_worker"}, {Entry: n + "_worker"}},
	}
}

// bothValidSelector: a shared variable selects between two implementations
// of the same computation (the paper's function-version example, §5.4
// category 3). Either value is correct; the selector register dies, both
// paths compute the same result: No-State-Change.
func bothValidSelector(i int) Template {
	n := fmt.Sprintf("bvsel%02d", i)
	x := 7 + i
	return Template{
		Name: n, Category: CatBothValid,
		ExpectGroup: classify.GroupNoStateChange, Races: 1,
		Appearances: 2,
		Decls:       fmt.Sprintf(".word %s_sel 0\n", n),
		Code: fmt.Sprintf(`
%[1]s_writer:
  ldi r2, %[1]s_sel
  ldi r3, 1
%[1]s_wsel:
  st [r2+0], r3
  ldi r1, 0
  sys exit
%[1]s_reader:
  ldi r2, %[1]s_sel
  ldi r4, %[2]d
%[1]s_rsel:
  ld r3, [r2+0]
  beq r3, r0, %[1]s_v0
  muli r5, r4, 2
  jmp %[1]s_out
%[1]s_v0:
  add r5, r4, r4
%[1]s_out:
  ldi r3, 0
  mov r1, r5
  sys exit
`, n, x),
		Workers: []Worker{{Entry: n + "_writer"}, {Entry: n + "_reader"}},
	}
}

// bothValidWait: producer-consumer sharing without locks (§5.4 category
// 3): the consumer re-checks the count and at worst waits longer, so
// either value is valid — but flipping the order on a check flips the
// branch into a path (yield wait vs. consume) the region never recorded:
// replay failure, real-benign.
func bothValidWait(i int) Template {
	n := fmt.Sprintf("bvwait%02d", i)
	total := 3 + i%3
	return Template{
		Name: n, Category: CatBothValid,
		ExpectGroup: classify.GroupReplayFailure, Races: 1,
		Appearances: 2,
		Decls:       fmt.Sprintf(".word %s_count 0\n", n),
		Code: fmt.Sprintf(`
%[1]s_prod:
  ldi r5, %[2]d
%[1]s_ploop:
  ldi r2, %[1]s_count
  ld r3, [r2+0]
  addi r3, r3, 1
%[1]s_pst:
  st [r2+0], r3
  addi r5, r5, -1
  bne r5, r0, %[1]s_ploop
  ldi r1, 0
  sys exit
%[1]s_cons:
  ldi r2, %[1]s_count
  ldi r7, 0
  ldi r8, %[2]d
%[1]s_rloop:
  beq r7, r8, %[1]s_rdone
%[1]s_rchk:
  ld r5, [r2+0]
  bltu r7, r5, %[1]s_rtake
  ldi r5, 0
  sys yield
  jmp %[1]s_rloop
%[1]s_rtake:
  addi r7, r7, 1
  jmp %[1]s_rloop
%[1]s_rdone:
  ldi r5, 0
  ldi r1, 0
  sys exit
`, n, total),
		Workers: []Worker{{Entry: n + "_prod"}, {Entry: n + "_cons"}},
	}
}

// approxCounter: an unsynchronized statistics cell that each worker
// stomps with its own running count (the paper's flagship
// approximate-computation pattern: the developers tolerate whichever
// thread's value wins). Swapping the racing stores changes which value
// survives: a real state change, reported potentially harmful even though
// it is tolerated by design (§5.2.4). One unique race.
func approxCounter(i int) Template {
	n := fmt.Sprintf("actr%02d", i)
	iters := 3 + i%4
	return Template{
		Name: n, Category: CatApprox,
		ExpectGroup: classify.GroupStateChange, Races: 1,
		Appearances: 2 + i%2,
		Decls:       fmt.Sprintf(".word %s_stat 0\n", n),
		Code: fmt.Sprintf(`
%[1]s_worker:
  ldi r5, %[2]d
  mov r6, r1
%[1]s_loop:
  ldi r2, %[1]s_stat
  addi r6, r6, 1
%[1]s_ast:
  st [r2+0], r6
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, %[1]s_loop
  ldi r1, 0
  sys exit
`, n, iters),
		Workers: []Worker{{Entry: n + "_worker", Arg: 0}, {Entry: n + "_worker", Arg: 100}},
	}
}

// approxReader: one updater plus a monitor that reads the live counter
// value (e.g. surfacing approximate statistics). The racing read's value
// stays live to the end of its region: state change, real-benign.
func approxReader(i int) Template {
	n := fmt.Sprintf("ardr%02d", i)
	iters := 3 + i%3
	return Template{
		Name: n, Category: CatApprox,
		ExpectGroup: classify.GroupStateChange, Races: 1,
		Appearances: 2,
		Decls:       fmt.Sprintf(".word %s_stat 0\n", n),
		Code: fmt.Sprintf(`
%[1]s_upd:
  ldi r5, %[2]d
%[1]s_uloop:
  ldi r2, %[1]s_stat
  ld r3, [r2+0]
  addi r3, r3, 1
%[1]s_ust:
  st [r2+0], r3
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, %[1]s_uloop
  ldi r1, 0
  sys exit
%[1]s_mon:
  ldi r5, %[2]d
%[1]s_mloop:
  ldi r2, %[1]s_stat
%[1]s_mld:
  ld r7, [r2+0]
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, %[1]s_mloop
  ldi r1, 0
  sys exit
`, n, iters),
		Workers: []Worker{{Entry: n + "_upd"}, {Entry: n + "_mon"}},
	}
}

// approxSampled: a counter consumed by a sampling branch (the paper's
// time-stamp/cache-decision example: the value only influences which
// perf-neutral path runs). When the flipped order flips the sample
// branch, the replay diverges into the unrecorded path: replay failure,
// real-benign.
func approxSampled(i int) Template {
	n := fmt.Sprintf("asmp%02d", i)
	iters := 3 + i%3
	mask := 1 + i%3
	return Template{
		Name: n, Category: CatApprox,
		ExpectGroup: classify.GroupReplayFailure, Races: 1,
		Appearances: 2,
		Decls:       fmt.Sprintf(".word %s_stat 0\n", n),
		Code: fmt.Sprintf(`
%[1]s_upd:
  ldi r5, %[2]d
%[1]s_uloop:
  ldi r2, %[1]s_stat
  ld r3, [r2+0]
  addi r3, r3, 1
%[1]s_ust:
  st [r2+0], r3
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, %[1]s_uloop
  ldi r1, 0
  sys exit
%[1]s_smp:
  ldi r5, %[2]d
%[1]s_sloop:
  ldi r2, %[1]s_stat
%[1]s_sld:
  ld r6, [r2+0]
  andi r7, r6, %[3]d
  ldi r6, 0
  bne r7, r0, %[1]s_skip
  ldi r7, 0
  ldi r1, 1
  sys print
  jmp %[1]s_scont
%[1]s_skip:
  ldi r7, 0
%[1]s_scont:
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, %[1]s_sloop
  ldi r1, 0
  sys exit
`, n, iters, mask),
		Workers: []Worker{{Entry: n + "_upd"}, {Entry: n + "_smp"}},
	}
}

// harmfulAudit: an unsynchronized read of a live value that a concurrent
// updater is modifying — the read result is consumed (kept live) and can
// be inconsistent: state change, real-harmful. The updater changes the
// value only every few rounds, so most instances look redundant — the
// "one in ten instances exposes the bug" effect of Figure 4.
func harmfulAudit(i int) Template {
	n := fmt.Sprintf("haud%02d", i)
	iters := 14 + 4*i
	return Template{
		Name: n, Category: CatHarmful, RealHarmful: true,
		ExpectGroup: classify.GroupStateChange, Races: 1,
		Appearances: 4,
		Decls:       fmt.Sprintf(".word %s_bal 100\n", n),
		Code: fmt.Sprintf(`
%[1]s_upd:
  ldi r5, %[2]d
  ldi r6, 0
%[1]s_uloop:
  ldi r2, %[1]s_bal
  ld r3, [r2+0]
  andi r4, r6, 7
  bne r4, r0, %[1]s_same
  addi r3, r3, 7
%[1]s_same:
%[1]s_ust:
  st [r2+0], r3
  sys sysnop
  addi r6, r6, 1
  addi r5, r5, -1
  bne r5, r0, %[1]s_uloop
  ldi r1, 0
  sys exit
%[1]s_aud:
  ldi r5, %[2]d
%[1]s_aloop:
  ldi r2, %[1]s_bal
%[1]s_ald:
  ld r7, [r2+0]
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, %[1]s_aloop
  ldi r1, 0
  sys exit
`, n, iters),
		Workers: []Worker{{Entry: n + "_upd"}, {Entry: n + "_aud"}},
	}
}

// harmfulRefcount: the paper's Figure 2 — two threads decrement a shared
// reference count with plain loads/stores and free the object when the
// re-read hits zero. Exposing instances flip a thread into (or out of)
// the free path, which leaves the recorded region: replay failure,
// real-harmful. Three unique races. The object is set up by main before
// the workers are spawned, so the setup stores are ordered and contribute
// no races of their own.
func harmfulRefcount() Template {
	n := "hrefc"
	return Template{
		Name: n, Category: CatHarmful, RealHarmful: true,
		ExpectGroup: classify.GroupReplayFailure, Races: 3,
		Appearances: 6,
		Decls:       fmt.Sprintf(".word %s_foo 0\n", n),
		Init: fmt.Sprintf(`
  ldi r1, 1
  sys alloc
  mov r4, r1
  ldi r3, 2
  st [r4+0], r3
  ldi r2, %[1]s_foo
  st [r2+0], r4
`, n),
		Code: fmt.Sprintf(`
%[1]s_worker:
  ldi r2, %[1]s_foo
  ld r4, [r2+0]
%[1]s_rcld:
  ld r5, [r4+0]
  addi r5, r5, -1
%[1]s_rcst:
  st [r4+0], r5
%[1]s_rcchk:
  ld r6, [r4+0]
  bne r6, r0, %[1]s_done
  mov r1, r4
  sys free
%[1]s_done:
  ldi r1, 0
  sys exit
`, n),
		Workers: []Worker{{Entry: n + "_worker"}, {Entry: n + "_worker"}},
	}
}

// harmfulNullPub: one thread nulls a shared pointer while another loads
// and dereferences it in the same region — the alternative order
// dereferences null and faults: replay failure, real-harmful.
func harmfulNullPub() Template {
	n := "hnull"
	return Template{
		Name: n, Category: CatHarmful, RealHarmful: true,
		ExpectGroup: classify.GroupReplayFailure, Races: 1,
		Appearances: 4,
		Decls:       fmt.Sprintf(".word %s_p 0\n", n),
		Init: fmt.Sprintf(`
  ldi r1, 1
  sys alloc
  mov r4, r1
  ldi r3, 7
  st [r4+0], r3
  ldi r2, %[1]s_p
  st [r2+0], r4
`, n),
		Code: fmt.Sprintf(`
%[1]s_null:
  ldi r2, %[1]s_p
%[1]s_nst:
  st [r2+0], r0
  ldi r1, 0
  sys exit
%[1]s_rdr:
  ldi r2, %[1]s_p
%[1]s_pld:
  ld r4, [r2+0]
%[1]s_deref:
  ld r5, [r4+0]
  ldi r1, 0
  sys exit
`, n),
		Workers: []Worker{{Entry: n + "_null"}, {Entry: n + "_rdr"}},
	}
}

// harmfulUAFFlag: a time-of-check-to-time-of-use bug — one thread frees a
// block then raises a plain "freed" flag; the other checks the flag and
// dereferences the block. The alternative order reads freed memory or an
// address the log never captured: replay failure, real-harmful.
func harmfulUAFFlag() Template {
	n := "huaf"
	return Template{
		Name: n, Category: CatHarmful, RealHarmful: true,
		ExpectGroup: classify.GroupReplayFailure, Races: 1,
		Appearances: 4,
		Decls:       fmt.Sprintf(".word %s_blk 0\n.word %s_freed 0\n", n, n),
		Init: fmt.Sprintf(`
  ldi r1, 2
  sys alloc
  mov r4, r1
  ldi r3, 11
  st [r4+0], r3
  ldi r2, %[1]s_blk
  st [r2+0], r4
`, n),
		Code: fmt.Sprintf(`
%[1]s_freer:
  ldi r6, 12
%[1]s_fwarm:
  addi r6, r6, -1
  bne r6, r0, %[1]s_fwarm
  ldi r2, %[1]s_blk
  ld r4, [r2+0]
  mov r1, r4
  sys free
  ldi r2, %[1]s_freed
  ldi r3, 1
%[1]s_fst:
  st [r2+0], r3
  ldi r1, 0
  sys exit
%[1]s_user:
  ldi r8, 6
%[1]s_round:
  ldi r2, %[1]s_freed
%[1]s_uld:
  ld r3, [r2+0]
  bne r3, r0, %[1]s_skip
  ldi r2, %[1]s_blk
  ld r4, [r2+0]
%[1]s_use:
  ld r5, [r4+0]
  ldi r3, 0
  ldi r4, 0
  ldi r5, 0
  sys sysnop
  addi r8, r8, -1
  bne r8, r0, %[1]s_round
%[1]s_skip:
  ldi r3, 0
  ldi r4, 0
  ldi r5, 0
  ldi r1, 0
  sys exit
`, n),
		Workers: []Worker{{Entry: n + "_freer"}, {Entry: n + "_user"}},
	}
}

// All returns every template in the suite, in canonical order. The counts
// per category reproduce the paper's census: 13 redundant writes, 9
// disjoint-bit, 8 user-constructed synchronization, 3 double checks, 5
// both-values-valid, 23 approximate computation, and the 7 harmful races
// (Table 1 + Table 2).
func All() []Template {
	var ts []Template
	for i := 1; i <= 13; i++ {
		ts = append(ts, redundantWrite(i))
	}
	for i := 1; i <= 9; i++ {
		ts = append(ts, disjointBits(i))
	}
	for i := 1; i <= 6; i++ {
		ts = append(ts, userSyncSpin(i))
	}
	for i := 1; i <= 2; i++ {
		ts = append(ts, userSyncYield(i))
	}
	ts = append(ts, doubleCheckLazy(1), doubleCheckLazy(2)) // 1 race each
	ts = append(ts, doubleCheckLock(1))                     // 1 race
	for i := 1; i <= 2; i++ {
		ts = append(ts, bothValidSelector(i))
	}
	for i := 1; i <= 3; i++ {
		ts = append(ts, bothValidWait(i))
	}
	for i := 1; i <= 12; i++ { // 12 races
		ts = append(ts, approxCounter(i))
	}
	for i := 1; i <= 3; i++ { // 3 races
		ts = append(ts, approxReader(i))
	}
	for i := 1; i <= 8; i++ { // 8 races
		ts = append(ts, approxSampled(i))
	}
	ts = append(ts, harmfulAudit(1), harmfulAudit(2)) // 2 races
	ts = append(ts, harmfulRefcount())                // 3 races
	ts = append(ts, harmfulNullPub())                 // 1 race
	ts = append(ts, harmfulUAFFlag())                 // 1 race
	return ts
}

// templateIndex maps each template's Name to the template, built once:
// reports look up every race's template, and All builds every template
// afresh.
var templateIndex = sync.OnceValue(func() map[string]Template {
	idx := make(map[string]Template)
	for _, t := range All() {
		idx[t.Name] = t
	}
	return idx
})

// ByName returns a copy of the template whose Name is a prefix of the
// given race site ("suite:red03_store+2" → red03), or nil. The copy owns
// its Workers, so a caller cannot change the index.
func ByName(name string) *Template {
	t, ok := templateIndex()[name]
	if !ok {
		return nil
	}
	t.Workers = slices.Clone(t.Workers)
	return &t
}

// TemplateOfSite resolves a race site string back to its template.
func TemplateOfSite(site string) *Template {
	s := strings.TrimPrefix(site, ProgName+":")
	if i := strings.IndexByte(s, '_'); i > 0 {
		return ByName(s[:i])
	}
	return nil
}

// --- Scenario composition -------------------------------------------------

// Scenario is one recorded execution: a set of templates composed into a
// single program, plus the scheduler seed.
type Scenario struct {
	Name      string
	Seed      int64
	Templates []Template
}

// NumScenarios is the number of executions in the suite, matching §5.1.
const NumScenarios = 18

// Scenarios composes the 18 executions. Templates are distributed
// round-robin by their Appearances weight; no scenario contains the same
// template twice.
func Scenarios() []Scenario {
	all := All()
	scen := make([]Scenario, NumScenarios)
	for i := range scen {
		scen[i] = Scenario{Name: fmt.Sprintf("exec%02d", i+1), Seed: int64(1000 + 37*i)}
	}
	slot := 0
	for _, t := range all {
		for a := 0; a < t.Appearances; a++ {
			// Find the next scenario not already containing this template.
			for tries := 0; tries < NumScenarios; tries++ {
				s := &scen[slot%NumScenarios]
				slot++
				if !containsTemplate(s.Templates, t.Name) {
					s.Templates = append(s.Templates, t)
					break
				}
			}
		}
	}
	return scen
}

func containsTemplate(ts []Template, name string) bool {
	for _, t := range ts {
		if t.Name == name {
			return true
		}
	}
	return false
}

// Source generates the scenario's assembly text.
func (s Scenario) Source() string {
	var b strings.Builder
	b.WriteString(".entry main\n")
	workers := 0
	for _, t := range s.Templates {
		workers += len(t.Workers)
	}
	fmt.Fprintf(&b, ".space tids %d\n", workers)
	for _, t := range s.Templates {
		b.WriteString(t.Decls)
	}
	for _, t := range s.Templates {
		b.WriteString(t.Code)
	}
	b.WriteString("main:\n")
	for _, t := range s.Templates {
		if t.Init != "" {
			b.WriteString(t.Init)
		}
	}
	b.WriteString("  ldi r10, tids\n")
	k := 0
	for _, t := range s.Templates {
		for _, w := range t.Workers {
			fmt.Fprintf(&b, "  ldi r1, %s\n  ldi r2, %d\n  sys spawn\n  st [r10+%d], r1\n", w.Entry, w.Arg, k)
			k++
		}
	}
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "  ld r1, [r10+%d]\n  sys join\n", i)
	}
	b.WriteString("  halt\n")
	return b.String()
}

// progCache memoizes assembly by source text. Scenarios are composed from
// a fixed template set, so the suite assembles the same 18+2 sources over
// and over (per seed, per benchmark iteration); a profile of the full
// suite showed ~30% of wall time inside asm.Assemble. An *isa.Program is
// never mutated after assembly (the machine copies Data into its own
// memory), so sharing one instance across runs and goroutines is safe.
var progCache sync.Map // source string -> *isa.Program

// Program assembles the scenario, memoizing by generated source.
func (s Scenario) Program() (*isa.Program, error) {
	src := s.Source()
	if p, ok := progCache.Load(src); ok {
		return p.(*isa.Program), nil
	}
	p, err := asm.Assemble(ProgName, src)
	if err != nil {
		return nil, err
	}
	progCache.Store(src, p)
	return p, nil
}

// Config returns the machine configuration for recording this scenario.
func (s Scenario) Config() machine.Config {
	return machine.Config{Seed: s.Seed, MaxSteps: 4 << 20}
}

// BrowseScenario is the larger, loop-heavy workload used for the §5.1
// performance measurements (the stand-in for the Internet Explorer
// browsing session): a mix of locked work, atomics, private compute, and
// a few of the racy templates.
func BrowseScenario() Scenario {
	all := All()
	pick := []string{"red01", "red02", "disj01", "disj02", "usync01", "actr01", "actr02", "ardr01", "ardr02", "bvsel01", "asmp01"}
	var ts []Template
	for _, name := range pick {
		for _, t := range all {
			if t.Name == name {
				ts = append(ts, t)
			}
		}
	}
	ts = append(ts, browseWorkers())
	return Scenario{Name: "browse", Seed: 4242, Templates: ts}
}

// ServiceScenario is a second performance workload: a Vista-service-like
// shape with deep call stacks, heap churn (alloc/free per request), and
// lock-protected shared queues — exercising the substrate paths the
// browse scenario does not (call/ret, allocator, poisoning).
func ServiceScenario() Scenario {
	return Scenario{Name: "service", Seed: 9001, Templates: []Template{serviceWorkers()}}
}

// serviceWorkers: each worker handles "requests": allocate a buffer, fill
// it via a helper function, fold it into a locked accumulator, free it.
func serviceWorkers() Template {
	n := "svc"
	return Template{
		Name: n, Category: CatRedundantWrite, ExpectGroup: classify.GroupNoStateChange,
		Races: 0, Appearances: 0,
		Decls: fmt.Sprintf(".word %s_mu 0\n.word %s_acc 0\n", n, n),
		Code: fmt.Sprintf(`
%[1]s_fill:
  ldi r6, 8
%[1]s_floop:
  addi r7, r6, 100
  st [r4+0], r7
  addi r4, r4, 1
  addi r6, r6, -1
  bne r6, r0, %[1]s_floop
  ret
%[1]s_sum:
  ldi r6, 8
  ldi r7, 0
%[1]s_sloop:
  ld r8, [r4+0]
  add r7, r7, r8
  addi r4, r4, 1
  addi r6, r6, -1
  bne r6, r0, %[1]s_sloop
  ret
%[1]s_worker:
  ldi r5, 120
%[1]s_req:
  ldi r1, 8
  sys alloc
  mov r9, r1
  mov r4, r9
  call %[1]s_fill
  mov r4, r9
  call %[1]s_sum
  ldi r3, %[1]s_mu
  lock [r3+0]
  ldi r2, %[1]s_acc
  ld r8, [r2+0]
  add r8, r8, r7
  st [r2+0], r8
  unlock [r3+0]
  mov r1, r9
  sys free
  addi r5, r5, -1
  bne r5, r0, %[1]s_req
  ldi r1, 0
  sys exit
`, n),
		Workers: []Worker{
			{Entry: n + "_worker"}, {Entry: n + "_worker"}, {Entry: n + "_worker"}, {Entry: n + "_worker"},
		},
	}
}

// browseWorkers is the compute-heavy, mostly-synchronized core of the
// browse scenario: checksum loops over a buffer, a locked shared counter
// and an atomic one — lots of instructions, few races, like a real
// application's steady state.
func browseWorkers() Template {
	n := "browse"
	return Template{
		Name: n, Category: CatRedundantWrite, ExpectGroup: classify.GroupNoStateChange,
		Races: 0, Appearances: 0,
		Decls: fmt.Sprintf(".word %s_mu 0\n.word %s_n 0\n.word %s_atomic 0\n.space %s_buf 192\n", n, n, n, n),
		Code: fmt.Sprintf(`
%[1]s_worker:
  ldi r5, 4000
  ldi r9, %[1]s_buf
  add r9, r9, r1
%[1]s_loop:
  andi r6, r5, 63
  add r7, r9, r6
  ld r8, [r7+0]
  add r8, r8, r5
  st [r7+0], r8
  andi r6, r5, 15
  bne r6, r0, %[1]s_nolock
  ldi r3, %[1]s_mu
  lock [r3+0]
  ldi r4, %[1]s_n
  ld r2, [r4+0]
  addi r2, r2, 1
  st [r4+0], r2
  unlock [r3+0]
  ldi r4, %[1]s_atomic
  ldi r2, 1
  xadd r6, [r4+0], r2
%[1]s_nolock:
  addi r5, r5, -1
  bne r5, r0, %[1]s_loop
  ldi r1, 0
  sys exit
`, n),
		Workers: []Worker{
			{Entry: n + "_worker", Arg: 0},
			{Entry: n + "_worker", Arg: 64},
			{Entry: n + "_worker", Arg: 128},
		},
	}
}
