// Package trace defines the replay-log data model and its on-disk format.
//
// A Log is the analogue of an iDNA trace: one ThreadLog per thread, each
// self-contained — the initial architectural state, the values of every
// unpredictable load, every syscall result, and the sequencers that
// timestamp the thread's synchronization operations. A thread can be
// replayed from its ThreadLog alone, with no reference to other threads;
// sequencers exist so the replayer can interleave sequencing regions in
// their original global order and so the race detector can reason about
// region overlap.
//
// The binary format is varint-based with per-stream delta encoding, which
// is what keeps the raw log in the sub-bit-per-instruction regime the
// paper reports (§5.1: 0.8 bit/instruction raw, ~0.3 compressed).
package trace

import (
	"fmt"

	"repro/internal/isa"
)

// SeqKind classifies a sequencer entry.
type SeqKind uint8

const (
	SeqStart   SeqKind = iota // pseudo: thread became live
	SeqAtomic                 // cas/xadd/xchg retirement
	SeqFence                  // fence retirement
	SeqLock                   // lock acquired
	SeqUnlock                 // unlock retired
	SeqSyscall                // syscall retired (Aux = syscall number)
	SeqEnd                    // pseudo: thread terminated
)

func (k SeqKind) String() string {
	switch k {
	case SeqStart:
		return "start"
	case SeqAtomic:
		return "atomic"
	case SeqFence:
		return "fence"
	case SeqLock:
		return "lock"
	case SeqUnlock:
		return "unlock"
	case SeqSyscall:
		return "syscall"
	case SeqEnd:
		return "end"
	}
	return fmt.Sprintf("seq(%d)", uint8(k))
}

// KindForOp maps a retiring synchronization instruction to its SeqKind.
func KindForOp(op isa.Op) SeqKind {
	switch op {
	case isa.OpCas, isa.OpXadd, isa.OpXchg:
		return SeqAtomic
	case isa.OpFence:
		return SeqFence
	case isa.OpLock:
		return SeqLock
	case isa.OpUnlock:
		return SeqUnlock
	case isa.OpSys:
		return SeqSyscall
	}
	return SeqFence
}

// Sequencer is one timestamped synchronization event in a thread's log.
// Idx is the thread-local instruction index the event is attached to: the
// index of the sync instruction itself for real sequencers, 0 for
// SeqStart, and the thread's final retired count for SeqEnd.
type Sequencer struct {
	Idx  uint64
	TS   uint64
	Kind SeqKind
	Aux  int64 // syscall number for SeqSyscall, -1 otherwise
}

// LoadRec records the value of one unpredictable load: the thread's replay
// must inject Val when its instruction at Idx loads from Addr.
type LoadRec struct {
	Idx  uint64
	Addr uint64
	Val  uint64
}

// SysRec records a syscall's result (injected into r1 at replay).
type SysRec struct {
	Idx uint64
	Res uint64
}

// EndReason says why a thread stopped.
type EndReason uint8

const (
	EndHalted  EndReason = iota // retired OpHalt
	EndExited                   // retired sys exit
	EndFaulted                  // crashed (Fault is set)
	EndRunning                  // run ended (budget) with the thread still live
)

func (r EndReason) String() string {
	switch r {
	case EndHalted:
		return "halted"
	case EndExited:
		return "exited"
	case EndFaulted:
		return "faulted"
	case EndRunning:
		return "running"
	}
	return fmt.Sprintf("end(%d)", uint8(r))
}

// FaultRec is the serializable form of a machine fault.
type FaultRec struct {
	Kind int
	PC   int
	Addr uint64
}

// KeyFrame is a mid-log resume point for one thread (iDNA's key frames):
// the architectural state and the thread's reconstructible memory view
// after exactly Idx instructions retired. Replay of the thread can start
// here instead of at instruction 0.
type KeyFrame struct {
	Idx  uint64
	PC   int
	Regs [isa.NumRegs]uint64
	View []LoadRec // (addr, value) pairs of the thread's memory view; Idx field unused
}

// ThreadLog is the complete replay log of one thread.
type ThreadLog struct {
	TID       int
	StartTS   uint64
	EndTS     uint64
	InitPC    int
	InitRegs  [isa.NumRegs]uint64
	Retired   uint64
	EndReason EndReason
	Fault     *FaultRec
	ExitCode  uint64

	Loads     []LoadRec
	SysRets   []SysRec
	Seqs      []Sequencer // includes the SeqStart and SeqEnd pseudo entries
	KeyFrames []KeyFrame  // optional mid-log resume points, ascending by Idx
}

// Log is a full recorded execution: the program (logs are self-contained)
// plus one ThreadLog per thread.
type Log struct {
	Prog       *isa.Program
	Seed       int64 // scheduler seed of the recorded run, for provenance
	Threads    []*ThreadLog
	FinalClock uint64
	Deadlocked bool
	TotalSteps uint64

	// DroppedThreads lists, in segment order, the TIDs whose thread
	// segments a salvaging v2 decode (DecodeOptions.Salvage)
	// dropped; nil for a whole log. It is in-memory only: MarshalV2
	// never serializes it. The missing threads took fork, join and lock
	// events with them, so predict.Run proposes no reordering of such a
	// log.
	DroppedThreads []int
}

// Thread returns the log for tid, or nil.
func (l *Log) Thread(tid int) *ThreadLog {
	for _, t := range l.Threads {
		if t.TID == tid {
			return t
		}
	}
	return nil
}

// Instructions returns the total retired-instruction count across threads.
func (l *Log) Instructions() uint64 {
	var n uint64
	for _, t := range l.Threads {
		n += t.Retired
	}
	return n
}

// Validate checks the structural invariants replay depends on: thread
// ids are unique, sequencer timestamps strictly increase within a
// thread, indices are monotone and bounded by the retirement count
// (region well-formedness), each thread's log starts with SeqStart
// and finishes with SeqEnd, and the threads together retire no more
// than the step budget (isa.MaxSteps), so replay runs no longer than a
// recording can. Failures are *ValidateError, naming the offending
// thread and the invariant that broke.
func (l *Log) Validate() error {
	if l.Prog == nil {
		return validateErr(-1, "program", "log has no program")
	}
	var retired uint64
	seen := make(map[int]bool, len(l.Threads))
	for _, t := range l.Threads {
		if seen[t.TID] {
			return validateErr(t.TID, "thread-ids", "duplicate thread id")
		}
		seen[t.TID] = true
		if len(t.Seqs) < 2 {
			return validateErr(t.TID, "seq-endpoints", "%d sequencers, want >= 2", len(t.Seqs))
		}
		if t.Seqs[0].Kind != SeqStart || t.Seqs[0].Idx != 0 {
			return validateErr(t.TID, "seq-endpoints", "does not start with SeqStart")
		}
		last := t.Seqs[len(t.Seqs)-1]
		if last.Kind != SeqEnd || last.Idx != t.Retired {
			return validateErr(t.TID, "seq-endpoints", "does not end with SeqEnd at %d", t.Retired)
		}
		for i := 1; i < len(t.Seqs); i++ {
			if t.Seqs[i].TS <= t.Seqs[i-1].TS {
				return validateErr(t.TID, "seq-timestamps", "timestamps not increasing at %d", i)
			}
			if t.Seqs[i].Idx < t.Seqs[i-1].Idx {
				return validateErr(t.TID, "seq-indices", "indices not monotone at %d", i)
			}
			if t.Seqs[i].Idx > t.Retired {
				return validateErr(t.TID, "seq-indices", "sequencer %d beyond retirement", i)
			}
		}
		for i := 1; i < len(t.Loads); i++ {
			if t.Loads[i].Idx < t.Loads[i-1].Idx {
				return validateErr(t.TID, "load-indices", "indices not monotone at %d", i)
			}
		}
		for i := 1; i < len(t.SysRets); i++ {
			if t.SysRets[i].Idx <= t.SysRets[i-1].Idx {
				return validateErr(t.TID, "sysret-indices", "indices not increasing at %d", i)
			}
		}
		if n := len(t.Loads); n > 0 && t.Loads[n-1].Idx >= t.Retired {
			return validateErr(t.TID, "load-indices", "load index beyond retirement")
		}
		if t.EndReason == EndFaulted && t.Fault == nil {
			return validateErr(t.TID, "fault-record", "faulted without fault record")
		}
		for i := 1; i < len(t.KeyFrames); i++ {
			if t.KeyFrames[i].Idx <= t.KeyFrames[i-1].Idx {
				return validateErr(t.TID, "keyframe-indices", "key frames not increasing at %d", i)
			}
		}
		if n := len(t.KeyFrames); n > 0 && t.KeyFrames[n-1].Idx > t.Retired {
			return validateErr(t.TID, "keyframe-indices", "key frame beyond retirement")
		}
		if t.Retired > isa.MaxSteps-retired {
			return validateErr(t.TID, "retired-budget", "threads retire more than the %d-instruction step budget", isa.MaxSteps)
		}
		retired += t.Retired
	}
	return nil
}
