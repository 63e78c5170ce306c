// Package static is the static half of the race pipeline: an
// ahead-of-execution analyzer for RVM programs that mirrors what the
// dynamic happens-before detector finds at runtime.
//
// The paper (§2.2.2) positions replay classification against
// static-discipline checkers: lockset analysis is cheap but imprecise,
// happens-before plus replay is precise but only sees executed
// interleavings. This package supplies the static side of that
// comparison. It builds a per-thread-entry CFG over basic blocks, runs a
// constant-propagation dataflow that resolves memory operand addresses
// (the Ldi/Addi-chain idiom the assembler and progen emit), abstractly
// interprets lock/unlock to get a must-hold lockset per access, and
// reports access pairs that may alias, may run concurrently, and share
// no lock — each tagged with the benign idiom it resembles (Table 2).
// crossval.go then joins these candidates against dynamic evidence so a
// suite run can quantify static precision/recall exactly the way the
// paper's comparison benchmark does for lockset-vs-HB.
package static

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/isa"
	"repro/internal/obs"
)

// Hint labels the benign idiom a candidate resembles, mirroring the
// paper's Table 2 categories (docs/STATIC.md has the exact mapping).
type Hint string

const (
	HintNone           Hint = ""
	HintStatsCounter   Hint = "stats-counter"
	HintRedundantWrite Hint = "redundant-write"
	HintDisjointBits   Hint = "disjoint-bits"
	HintUserSync       Hint = "user-sync"
	HintDoubleCheck    Hint = "double-check"
)

// Candidate is one static race candidate: two sites that may touch the
// same cell concurrently with no common lock, at least one writing.
// Sites are ordered lexicographically (SiteA <= SiteB) so a candidate
// keys identically to the dynamic detector's SitePair.
type Candidate struct {
	SiteA, SiteB   string
	EntryA, EntryB string   // thread entries the two sides run under
	KindA, KindB   string   // read / write / rmw
	Addr           string   // rendered abstract cell
	LocksA, LocksB []string // must-hold locksets (disjoint by construction)
	Hint           Hint
}

// Entry is one discovered thread entry.
type Entry struct {
	Label      string
	PC         int
	Root       bool
	SpawnSites int
	Looped     bool // spawned from inside a loop: unbounded instances
}

// Stats counts what the analyzer saw and what it had to give up on.
type Stats struct {
	Instrs           int
	Blocks           int
	Accesses         int // shared-candidate accesses after all filters
	SkippedUnknown   int // operand address not statically resolvable
	SkippedPrivate   int // stack, guard page, or unescaped heap
	FilteredOrdered  int // root accesses ordered by spawn/join structure
	UnresolvedSpawns int // spawn sites whose target pc is unknown
	UnresolvedJumps  int // blocks ending in an indirect jmpr
}

// Report is the analyzer output for one program.
type Report struct {
	Prog       string
	Entries    []Entry
	Candidates []Candidate
	Stats      Stats
}

// Analyze statically analyzes prog, publishing static.* counters into
// reg under a "static" span (nil reg is off). It never fails:
// unanalyzable constructs degrade into skip counters in Stats rather than
// errors, so the fuzz contract is simply "never panic, always terminate".
func Analyze(prog *isa.Program, reg *obs.Registry) *Report {
	sp := reg.StartSpan("static")
	defer sp.End()
	rep := &Report{Prog: prog.Name}
	if len(prog.Code) == 0 {
		publishMetrics(reg, rep)
		return rep
	}
	accesses, multOf := collect(prog, rep)
	rep.Candidates = pair(prog, accesses, multOf)
	publishMetrics(reg, rep)
	return rep
}

func publishMetrics(reg *obs.Registry, rep *Report) {
	if reg == nil {
		return
	}
	reg.Counter("static.programs").Inc()
	reg.Counter("static.entries").Add(uint64(len(rep.Entries)))
	reg.Counter("static.blocks").Add(uint64(rep.Stats.Blocks))
	reg.Counter("static.accesses").Add(uint64(rep.Stats.Accesses))
	reg.Counter("static.candidates").Add(uint64(len(rep.Candidates)))
	reg.Counter("static.skipped_unknown").Add(uint64(rep.Stats.SkippedUnknown))
	reg.Counter("static.skipped_private").Add(uint64(rep.Stats.SkippedPrivate))
	reg.Counter("static.filtered_ordered").Add(uint64(rep.Stats.FilteredOrdered))
	reg.Counter("static.unresolved_spawns").Add(uint64(rep.Stats.UnresolvedSpawns))
	reg.Counter("static.unresolved_jumps").Add(uint64(rep.Stats.UnresolvedJumps))
}

// Format renders the report in the pipeline's plain-text style.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "static analysis: %s\n", r.Prog)
	fmt.Fprintf(w, "  %d instructions, %d blocks, %d thread entries\n",
		r.Stats.Instrs, r.Stats.Blocks, len(r.Entries))
	for _, e := range r.Entries {
		switch {
		case e.Root:
			fmt.Fprintf(w, "  entry %-16s pc %-4d (root)\n", e.Label, e.PC)
		case e.Looped:
			fmt.Fprintf(w, "  entry %-16s pc %-4d spawned from %d site(s), in a loop\n", e.Label, e.PC, e.SpawnSites)
		default:
			fmt.Fprintf(w, "  entry %-16s pc %-4d spawned from %d site(s)\n", e.Label, e.PC, e.SpawnSites)
		}
	}
	s := r.Stats
	fmt.Fprintf(w, "  accesses: %d shared-candidate (skipped: %d unknown addr, %d private; filtered: %d ordered)\n",
		s.Accesses, s.SkippedUnknown, s.SkippedPrivate, s.FilteredOrdered)
	if s.UnresolvedSpawns > 0 || s.UnresolvedJumps > 0 {
		fmt.Fprintf(w, "  unresolved: %d spawn target(s), %d indirect jump(s)\n",
			s.UnresolvedSpawns, s.UnresolvedJumps)
	}
	if len(r.Candidates) == 0 {
		fmt.Fprintf(w, "  no static race candidates\n")
		return
	}
	fmt.Fprintf(w, "  %d static race candidate(s):\n", len(r.Candidates))
	for i, c := range r.Candidates {
		fmt.Fprintf(w, "  [%d] %s <-> %s\n", i+1, c.SiteA, c.SiteB)
		fmt.Fprintf(w, "      cell %s  %s(%s) vs %s(%s)\n",
			c.Addr, c.KindA, c.EntryA, c.KindB, c.EntryB)
		fmt.Fprintf(w, "      locks {%s} vs {%s}\n",
			strings.Join(c.LocksA, ","), strings.Join(c.LocksB, ","))
		if c.Hint != HintNone {
			fmt.Fprintf(w, "      hint: %s\n", c.Hint)
		}
	}
}
