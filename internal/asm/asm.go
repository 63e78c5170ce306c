// Package asm assembles RVM assembly text (".rasm") into isa.Programs.
//
// The language is deliberately small: one instruction or directive per
// line, ';' comments, labels ending in ':', and three directives:
//
//	.entry label        ; where thread 0 starts (default: first instruction)
//	.const NAME = expr  ; named constant
//	.word NAME init     ; one data word, NAME becomes its address
//	.space NAME n       ; n zeroed data words, NAME becomes the base address
//
// Operands are registers (r0..r15), integer literals (decimal or 0x hex,
// optionally negated), symbols (labels, data names, constants), or simple
// SYM+int / SYM-int expressions. Memory operands are written [rN+off].
//
// The workload generator composes scenarios by concatenating template
// sources with prefixed labels, so assembling is the single front door for
// all code that runs on the machine.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Error is an assembly diagnostic tied to a source line.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

type assembler struct {
	file    string
	prog    *isa.Program
	consts  map[string]int64  // .const values
	data    map[string]uint64 // data name -> address
	nextDat uint64
	lastLbl string
	lastAt  int
	entry   string // .entry label, resolved at the end
}

// Assemble parses src and returns a validated program. name is used both
// as the program name (race sites read "name:label+off") and in
// diagnostics.
func Assemble(name, src string) (*isa.Program, error) {
	a := &assembler{
		file:    name,
		prog:    isa.NewProgram(name),
		consts:  make(map[string]int64),
		data:    make(map[string]uint64),
		nextDat: isa.DataBase,
	}
	lines := strings.Split(src, "\n")

	// Pass 1: collect labels, constants and data symbols; count instructions.
	pc := 0
	for i, raw := range lines {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		rest, labels, err := a.takeLabels(line, i+1)
		if err != nil {
			return nil, err
		}
		for _, lbl := range labels {
			if _, dup := a.prog.Symbols[lbl]; dup {
				return nil, a.errf(i+1, "duplicate label %q", lbl)
			}
			a.prog.Symbols[lbl] = pc
		}
		if rest == "" {
			continue
		}
		if strings.HasPrefix(rest, ".") {
			if err := a.directive(rest, i+1, true); err != nil {
				return nil, err
			}
			continue
		}
		pc++
	}

	// Pass 2: emit instructions.
	pc = 0
	for i, raw := range lines {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		rest, _, err := a.takeLabels(line, i+1)
		if err != nil || rest == "" {
			continue
		}
		if strings.HasPrefix(rest, ".") {
			if err := a.directive(rest, i+1, false); err != nil {
				return nil, err
			}
			continue
		}
		// Track the nearest preceding label for the source map.
		if at, ok := labelAt(a.prog.Symbols, pc); ok {
			a.lastLbl, a.lastAt = at, pc
		}
		ins, err := a.instruction(rest, i+1)
		if err != nil {
			return nil, err
		}
		a.prog.Code = append(a.prog.Code, ins)
		a.prog.Sources = append(a.prog.Sources, isa.SourceLoc{
			Line:   i + 1,
			Symbol: a.lastLbl,
			Offset: pc - a.lastAt,
		})
		pc++
	}

	if a.entry != "" {
		at, ok := a.prog.Symbols[a.entry]
		if !ok {
			return nil, a.errf(0, "entry label %q not defined", a.entry)
		}
		a.prog.Entry = at
	}
	if err := a.prog.Validate(); err != nil {
		return nil, err
	}
	return a.prog, nil
}

func labelAt(symbols map[string]int, pc int) (string, bool) {
	best := ""
	for name, at := range symbols {
		if at == pc && (best == "" || name < best) {
			best = name
		}
	}
	return best, best != ""
}

func stripComment(line string) string {
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// takeLabels strips any leading "name:" labels and returns the remainder.
func (a *assembler) takeLabels(line string, lineNo int) (string, []string, error) {
	var labels []string
	for {
		i := strings.IndexByte(line, ':')
		if i < 0 {
			break
		}
		head := strings.TrimSpace(line[:i])
		if !isIdent(head) {
			break
		}
		labels = append(labels, head)
		line = strings.TrimSpace(line[i+1:])
	}
	return line, labels, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &Error{File: a.file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) directive(line string, lineNo int, pass1 bool) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".entry":
		if len(fields) != 2 {
			return a.errf(lineNo, ".entry wants one label")
		}
		a.entry = fields[1]
		return nil
	case ".const":
		// .const NAME = expr
		if !pass1 {
			return nil
		}
		rest := strings.TrimSpace(strings.TrimPrefix(line, ".const"))
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return a.errf(lineNo, ".const wants NAME = value")
		}
		name := strings.TrimSpace(rest[:eq])
		if !isIdent(name) {
			return a.errf(lineNo, "bad constant name %q", name)
		}
		v, err := a.evalConst(strings.TrimSpace(rest[eq+1:]), lineNo)
		if err != nil {
			return err
		}
		if _, dup := a.consts[name]; dup {
			return a.errf(lineNo, "duplicate constant %q", name)
		}
		a.consts[name] = v
		return nil
	case ".word":
		if !pass1 {
			return nil
		}
		if len(fields) != 3 {
			return a.errf(lineNo, ".word wants NAME init")
		}
		name := fields[1]
		if !isIdent(name) {
			return a.errf(lineNo, "bad data name %q", name)
		}
		v, err := a.evalConst(fields[2], lineNo)
		if err != nil {
			return err
		}
		if _, dup := a.data[name]; dup {
			return a.errf(lineNo, "duplicate data name %q", name)
		}
		a.data[name] = a.nextDat
		a.prog.DataSyms[name] = a.nextDat
		a.prog.Data[a.nextDat] = uint64(v)
		a.nextDat++
		return nil
	case ".space":
		if !pass1 {
			return nil
		}
		if len(fields) != 3 {
			return a.errf(lineNo, ".space wants NAME nwords")
		}
		name := fields[1]
		if !isIdent(name) {
			return a.errf(lineNo, "bad data name %q", name)
		}
		n, err := a.evalConst(fields[2], lineNo)
		if err != nil {
			return err
		}
		if n <= 0 {
			return a.errf(lineNo, ".space size must be positive, got %d", n)
		}
		if _, dup := a.data[name]; dup {
			return a.errf(lineNo, "duplicate data name %q", name)
		}
		a.data[name] = a.nextDat
		a.prog.DataSyms[name] = a.nextDat
		for i := int64(0); i < n; i++ {
			a.prog.Data[a.nextDat] = 0
			a.nextDat++
		}
		return nil
	default:
		return a.errf(lineNo, "unknown directive %s", fields[0])
	}
}

// evalConst resolves pass-1 expressions (literals, earlier constants and
// data names, SYM+int).
func (a *assembler) evalConst(expr string, lineNo int) (int64, error) {
	v, _, err := a.evalSym(expr, lineNo, false)
	return v, err
}

// evalSym resolves an operand expression. When allowLabels is true, code
// labels are legal (the value is the instruction index); label references
// may be unresolved in pass 1, so this is only called from pass 2 for
// instruction operands.
func (a *assembler) evalSym(expr string, lineNo int, allowLabels bool) (int64, bool, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, false, a.errf(lineNo, "empty expression")
	}
	// SYM+int / SYM-int split (but not a leading sign).
	for i := 1; i < len(expr); i++ {
		if expr[i] == '+' || expr[i] == '-' {
			base, _, err := a.evalSym(expr[:i], lineNo, allowLabels)
			if err != nil {
				return 0, false, err
			}
			off, err := strconv.ParseInt(strings.TrimSpace(expr[i+1:]), 0, 64)
			if err != nil {
				return 0, false, a.errf(lineNo, "bad offset in %q", expr)
			}
			if expr[i] == '-' {
				off = -off
			}
			return base + off, true, nil
		}
	}
	if v, err := strconv.ParseInt(expr, 0, 64); err == nil {
		return v, false, nil
	}
	if v, ok := a.consts[expr]; ok {
		return v, true, nil
	}
	if addr, ok := a.data[expr]; ok {
		return int64(addr), true, nil
	}
	if allowLabels {
		if at, ok := a.prog.Symbols[expr]; ok {
			return int64(at), true, nil
		}
	}
	return 0, false, a.errf(lineNo, "undefined symbol %q", expr)
}

func (a *assembler) reg(tok string, lineNo int) (uint8, error) {
	tok = strings.TrimSpace(tok)
	if strings.EqualFold(tok, "sp") {
		return isa.SP, nil
	}
	if len(tok) < 2 || (tok[0] != 'r' && tok[0] != 'R') {
		return 0, a.errf(lineNo, "expected register, got %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, a.errf(lineNo, "bad register %q", tok)
	}
	return uint8(n), nil
}

// mem parses a "[rN+expr]" operand into (base register, offset).
func (a *assembler) mem(tok string, lineNo int) (uint8, int64, error) {
	tok = strings.TrimSpace(tok)
	if len(tok) < 2 || tok[0] != '[' || tok[len(tok)-1] != ']' {
		return 0, 0, a.errf(lineNo, "expected [reg+off], got %q", tok)
	}
	inner := strings.TrimSpace(tok[1 : len(tok)-1])
	// Split base register from the offset expression.
	sep := -1
	for i := 1; i < len(inner); i++ {
		if inner[i] == '+' || inner[i] == '-' {
			sep = i
			break
		}
	}
	regTok, offExpr := inner, ""
	if sep >= 0 {
		regTok, offExpr = inner[:sep], inner[sep:]
	}
	base, err := a.reg(regTok, lineNo)
	if err != nil {
		return 0, 0, err
	}
	off := int64(0)
	if offExpr != "" {
		sign := int64(1)
		if offExpr[0] == '-' {
			sign = -1
		}
		v, _, err := a.evalSym(offExpr[1:], lineNo, false)
		if err != nil {
			return 0, 0, err
		}
		off = sign * v
	}
	return base, off, nil
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

var opByName = func() map[string]isa.Op {
	m := make(map[string]isa.Op, isa.OpCount)
	for op := isa.Op(0); op.Valid(); op++ {
		m[op.String()] = op
	}
	return m
}()

func (a *assembler) instruction(line string, lineNo int) (isa.Instr, error) {
	var mnem, rest string
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnem, rest = line[:i], strings.TrimSpace(line[i+1:])
	} else {
		mnem = line
	}
	mnem = strings.ToLower(mnem)
	op, ok := opByName[mnem]
	if !ok {
		return isa.Instr{}, a.errf(lineNo, "unknown mnemonic %q", mnem)
	}
	ops := splitOperands(rest)
	need := func(n int) error {
		if len(ops) != n {
			return a.errf(lineNo, "%s wants %d operands, got %d", mnem, n, len(ops))
		}
		return nil
	}
	ins := isa.Instr{Op: op}
	var err error
	switch op {
	case isa.OpNop, isa.OpHalt, isa.OpFence, isa.OpRet:
		return ins, need(0)

	case isa.OpLdi:
		if err = need(2); err != nil {
			return ins, err
		}
		if ins.Rd, err = a.reg(ops[0], lineNo); err != nil {
			return ins, err
		}
		ins.Imm, _, err = a.evalSym(ops[1], lineNo, true)
		return ins, err

	case isa.OpMov, isa.OpNot, isa.OpNeg:
		if err = need(2); err != nil {
			return ins, err
		}
		if ins.Rd, err = a.reg(ops[0], lineNo); err != nil {
			return ins, err
		}
		ins.Rs1, err = a.reg(ops[1], lineNo)
		return ins, err

	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr:
		if err = need(3); err != nil {
			return ins, err
		}
		if ins.Rd, err = a.reg(ops[0], lineNo); err != nil {
			return ins, err
		}
		if ins.Rs1, err = a.reg(ops[1], lineNo); err != nil {
			return ins, err
		}
		ins.Rs2, err = a.reg(ops[2], lineNo)
		return ins, err

	case isa.OpAddi, isa.OpMuli, isa.OpAndi, isa.OpOri,
		isa.OpXori, isa.OpShli, isa.OpShri:
		if err = need(3); err != nil {
			return ins, err
		}
		if ins.Rd, err = a.reg(ops[0], lineNo); err != nil {
			return ins, err
		}
		if ins.Rs1, err = a.reg(ops[1], lineNo); err != nil {
			return ins, err
		}
		ins.Imm, _, err = a.evalSym(ops[2], lineNo, false)
		return ins, err

	case isa.OpLd:
		if err = need(2); err != nil {
			return ins, err
		}
		if ins.Rd, err = a.reg(ops[0], lineNo); err != nil {
			return ins, err
		}
		ins.Rs1, ins.Imm, err = a.mem(ops[1], lineNo)
		return ins, err

	case isa.OpSt, isa.OpOrm, isa.OpAndm, isa.OpXorm, isa.OpAddm:
		if err = need(2); err != nil {
			return ins, err
		}
		if ins.Rs1, ins.Imm, err = a.mem(ops[0], lineNo); err != nil {
			return ins, err
		}
		ins.Rs2, err = a.reg(ops[1], lineNo)
		return ins, err

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		if err = need(3); err != nil {
			return ins, err
		}
		if ins.Rs1, err = a.reg(ops[0], lineNo); err != nil {
			return ins, err
		}
		if ins.Rs2, err = a.reg(ops[1], lineNo); err != nil {
			return ins, err
		}
		ins.Imm, _, err = a.evalSym(ops[2], lineNo, true)
		return ins, err

	case isa.OpJmp, isa.OpCall:
		if err = need(1); err != nil {
			return ins, err
		}
		ins.Imm, _, err = a.evalSym(ops[0], lineNo, true)
		return ins, err

	case isa.OpJmpr:
		if err = need(1); err != nil {
			return ins, err
		}
		ins.Rs1, err = a.reg(ops[0], lineNo)
		return ins, err

	case isa.OpCas, isa.OpXadd, isa.OpXchg:
		if err = need(3); err != nil {
			return ins, err
		}
		if ins.Rd, err = a.reg(ops[0], lineNo); err != nil {
			return ins, err
		}
		if ins.Rs1, ins.Imm, err = a.mem(ops[1], lineNo); err != nil {
			return ins, err
		}
		ins.Rs2, err = a.reg(ops[2], lineNo)
		return ins, err

	case isa.OpLock, isa.OpUnlock:
		if err = need(1); err != nil {
			return ins, err
		}
		ins.Rs1, ins.Imm, err = a.mem(ops[0], lineNo)
		return ins, err

	case isa.OpSys:
		if err = need(1); err != nil {
			return ins, err
		}
		if n := isa.SyscallNumber(ops[0]); n >= 0 {
			ins.Imm = n
			return ins, nil
		}
		ins.Imm, _, err = a.evalSym(ops[0], lineNo, false)
		return ins, err
	}
	return ins, a.errf(lineNo, "unhandled mnemonic %q", mnem)
}
