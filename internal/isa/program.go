package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Memory layout constants. The address space is word-granular: each address
// names one 64-bit word. Address 0 and the rest of the guard page are never
// mapped, so stray null-pointer arithmetic faults immediately — the RVM
// analogue of a page-zero access violation.
const (
	NullGuardTop uint64 = 0x0010    // addresses < NullGuardTop always fault
	DataBase     uint64 = 0x1000    // globals declared with .word / .space
	HeapBase     uint64 = 0x1_0000  // sys alloc carves blocks from here
	StackBase    uint64 = 0x10_0000 // thread t's stack top = StackBase + (t+1)*StackWords
	StackWords   uint64 = 0x400     // words of stack per thread
)

// MaxSteps is the step budget: the most instructions one execution
// retires, over all its threads. The machine stops there whatever its
// configuration asks, and a log that claims more does not validate, so
// replaying a log costs no more than recording it could have.
const MaxSteps uint64 = 8 << 20

// StackTop returns the initial stack pointer for thread tid.
// Stacks grow downward (Call decrements SP before storing).
func StackTop(tid int) uint64 {
	return StackBase + uint64(tid+1)*StackWords
}

// SourceLoc ties an instruction back to the assembly that produced it.
type SourceLoc struct {
	Line   int    // 1-based line in the .rasm source ("0" for builder-made code)
	Symbol string // nearest preceding label
	Offset int    // instruction offset from that label
}

// Program is a fully assembled RVM program: code, initialized data, and the
// symbol/source maps that give race reports stable, human-readable sites.
type Program struct {
	Name    string
	Code    []Instr
	Entry   int               // instruction index where thread 0 starts
	Data    map[uint64]uint64 // initial contents of the data segment
	Symbols map[string]int    // label -> instruction index
	Sources []SourceLoc       // one per instruction; may be empty
	// DataSyms maps .word/.space names to their data addresses. It is a
	// source-level convenience (the static analyzer renders candidate
	// addresses symbolically) and, like Sources, is not serialized into
	// replay logs: programs decoded from a log fall back to hex addresses.
	DataSyms map[string]uint64
}

// NewProgram returns an empty program with allocated maps.
func NewProgram(name string) *Program {
	return &Program{
		Name:     name,
		Data:     make(map[uint64]uint64),
		Symbols:  make(map[string]int),
		DataSyms: make(map[string]uint64),
	}
}

// NameOfData returns a symbolic rendering of a data address: the nearest
// data symbol at or below addr ("name" or "name+off"), or "" when the
// program carries no data symbol covering it.
func (p *Program) NameOfData(addr uint64) string {
	bestName, bestAddr, found := "", uint64(0), false
	for name, at := range p.DataSyms {
		if at <= addr && (!found || at > bestAddr || (at == bestAddr && name < bestName)) {
			bestName, bestAddr, found = name, at, true
		}
	}
	if !found {
		return ""
	}
	if addr == bestAddr {
		return bestName
	}
	return fmt.Sprintf("%s+%d", bestName, addr-bestAddr)
}

// Validate checks structural invariants: every branch target lands inside
// the code, register fields are in range, and syscall numbers are known.
// The machine re-checks dynamically (for Jmpr), but assembling an invalid
// static target is always a bug.
func (p *Program) Validate() error {
	n := int64(len(p.Code))
	for pc, ins := range p.Code {
		if !ins.Op.Valid() {
			return fmt.Errorf("%s: pc %d: invalid opcode %d", p.Name, pc, ins.Op)
		}
		if ins.Rd >= NumRegs || ins.Rs1 >= NumRegs || ins.Rs2 >= NumRegs {
			return fmt.Errorf("%s: pc %d: register out of range in %v", p.Name, pc, ins)
		}
		switch ins.Op {
		case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu, OpJmp, OpCall:
			if ins.Imm < 0 || ins.Imm >= n {
				return fmt.Errorf("%s: pc %d: branch target %d outside code [0,%d)", p.Name, pc, ins.Imm, n)
			}
		case OpSys:
			if ins.Imm < 0 || ins.Imm >= SyscallCount {
				return fmt.Errorf("%s: pc %d: unknown syscall %d", p.Name, pc, ins.Imm)
			}
		}
	}
	if p.Entry < 0 || (len(p.Code) > 0 && p.Entry >= len(p.Code)) {
		return fmt.Errorf("%s: entry %d outside code", p.Name, p.Entry)
	}
	return nil
}

// SiteOf returns a stable human-readable identity for the instruction at pc,
// of the form "prog:label+off". Race identity is built on these strings, so
// the same template produces the same site across scenarios.
func (p *Program) SiteOf(pc int) string {
	if pc < 0 || pc >= len(p.Code) {
		return fmt.Sprintf("%s:pc%d", p.Name, pc)
	}
	if pc < len(p.Sources) {
		loc := p.Sources[pc]
		if loc.Symbol != "" {
			if loc.Offset == 0 {
				return fmt.Sprintf("%s:%s", p.Name, loc.Symbol)
			}
			return fmt.Sprintf("%s:%s+%d", p.Name, loc.Symbol, loc.Offset)
		}
	}
	// Fall back to the nearest label at or before pc.
	bestName, bestAt := "", -1
	for name, at := range p.Symbols {
		if at <= pc && (at > bestAt || (at == bestAt && name < bestName)) {
			bestName, bestAt = name, at
		}
	}
	if bestAt >= 0 {
		if pc == bestAt {
			return fmt.Sprintf("%s:%s", p.Name, bestName)
		}
		return fmt.Sprintf("%s:%s+%d", p.Name, bestName, pc-bestAt)
	}
	return fmt.Sprintf("%s:pc%d", p.Name, pc)
}

// Disassemble renders the whole program with labels and addresses, one
// instruction per line.
func (p *Program) Disassemble() string {
	byAddr := make(map[int][]string)
	for name, at := range p.Symbols {
		byAddr[at] = append(byAddr[at], name)
	}
	for _, names := range byAddr {
		sort.Strings(names)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s  (%d instructions, entry %d)\n", p.Name, len(p.Code), p.Entry)
	if len(p.Data) > 0 {
		addrs := make([]uint64, 0, len(p.Data))
		for a := range p.Data {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			fmt.Fprintf(&b, "; data [0x%x] = %d\n", a, p.Data[a])
		}
	}
	for pc, ins := range p.Code {
		for _, name := range byAddr[pc] {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		fmt.Fprintf(&b, "  %4d  %s\n", pc, ins)
	}
	return b.String()
}
