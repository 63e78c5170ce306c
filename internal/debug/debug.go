// Package debug implements a time-travel debugger over replay logs —
// the iDNA facility the paper couples with its race reports ("the ability
// to do reverse execution (also called time travel debugging) ...
// provides a powerful platform for the developers to examine the
// potentially harmful data races", §1).
//
// Navigation is at sequencing-region granularity: position p means "the
// first p regions of the schedule have executed". The debugger replays
// the log once, and every position is then a query, forwards or
// backwards alike: memory from the execution's memory history, a
// thread's registers from the entry state of its next region, and its
// output from the prints its regions opened with.
package debug

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Debugger navigates one recorded execution: one replay and a position.
type Debugger struct {
	full *replay.Execution
	pos  int // regions executed so far
}

// New replays log and builds a debugger positioned at the end of the
// execution.
func New(log *trace.Log) (*Debugger, error) {
	full, err := replay.Run(log, replay.Options{})
	if err != nil {
		return nil, err
	}
	return &Debugger{full: full, pos: len(full.Regions)}, nil
}

// Len returns the number of sequencing regions in the schedule.
func (d *Debugger) Len() int { return len(d.full.Regions) }

// Pos returns the current position (regions executed so far).
func (d *Debugger) Pos() int { return d.pos }

// Seek repositions to pos, clamped to [1, Len].
func (d *Debugger) Seek(pos int) { d.pos = min(max(pos, 1), d.Len()) }

// Step advances n regions (negative steps backwards).
func (d *Debugger) Step(n int) { d.Seek(d.pos + n) }

// Mem reads the reconstructed memory image at the current position.
// Unwritten addresses read as zero (and report false).
func (d *Debugger) Mem(addr uint64) (uint64, bool) {
	return d.full.Memory().Before(addr, d.pos)
}

// Thread returns the architectural state of tid at the current position:
// the entry state of tid's first region not yet run, or its final state
// when every region has run.
func (d *Debugger) Thread(tid int) (machine.Cpu, bool) {
	t := d.full.Thread(tid)
	if t == nil {
		return machine.Cpu{}, false
	}
	if i := sort.Search(len(t.Regions), func(i int) bool { return t.Regions[i].Global >= d.pos }); i < len(t.Regions) {
		return t.Regions[i].StartCpu, true
	}
	return t.FinalCpu, true
}

// Output returns what tid has printed up to the current position: one
// value for each of tid's regions that has run and opens with sys print
// (every retired syscall opens a region).
func (d *Debugger) Output(tid int) []int64 {
	t := d.full.Thread(tid)
	if t == nil {
		return nil
	}
	k := 0
	for _, r := range t.Regions {
		if r.Global < d.pos && r.StartSyscall == isa.SysPrint {
			k++
		}
	}
	return t.Output[:k]
}

// Region describes schedule entry i (independent of position).
func (d *Debugger) Region(i int) (*replay.Region, bool) {
	if i < 0 || i >= d.Len() {
		return nil, false
	}
	return d.full.Regions[i], true
}

// WritesTo lists the schedule positions whose region wrote addr, with the
// value written — "when did this variable change?", the core time-travel
// question.
func (d *Debugger) WritesTo(addr uint64) []Write {
	var out []Write
	for _, reg := range d.full.Regions {
		for _, acc := range reg.Accesses {
			if acc.Addr == addr && acc.IsWrite {
				out = append(out, Write{Pos: reg.Global + 1, TID: reg.TID, PC: acc.PC, Val: acc.Val})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// Write is one recorded store to a watched address.
type Write struct {
	Pos int // schedule position after which the write is visible
	TID int
	PC  int
	Val uint64
}

// FirstWriteTo finds the earliest write to addr, of any value — a
// root-cause search helper.
func (d *Debugger) FirstWriteTo(addr uint64) (Write, bool) {
	ws := d.WritesTo(addr)
	if len(ws) == 0 {
		return Write{}, false
	}
	return ws[0], true
}

// ThreadStateAt answers an instruction-granular per-thread state query
// straight from the log (resuming from a key frame when the log has
// them) — finer than the debugger's region-granular position.
func (d *Debugger) ThreadStateAt(tid int, idx uint64) (*replay.ThreadState, error) {
	return replay.ThreadStateAt(d.full.Log, tid, idx)
}

// Summary renders the current position: which region just ran, per-thread
// progress.
func (d *Debugger) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "position %d/%d", d.pos, d.Len())
	if d.pos >= 1 {
		r := d.full.Regions[d.pos-1]
		fmt.Fprintf(&b, "  (last region: thread %d, %s..%s, instructions %d..%d)",
			r.TID, r.StartKind, r.EndKind, r.StartIdx, r.EndIdx)
	}
	b.WriteString("\n")
	for _, t := range d.full.Threads {
		cpu, _ := d.Thread(t.TID)
		fmt.Fprintf(&b, "  thread %d: pc %d (%s)", t.TID, cpu.PC, d.full.Prog.SiteOf(cpu.PC))
		if out := d.Output(t.TID); len(out) > 0 {
			fmt.Fprintf(&b, " output %v", out)
		}
		b.WriteString("\n")
	}
	return b.String()
}
