package asm

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestAssembleBasic(t *testing.T) {
	src := `
; a tiny program
.const TEN = 10
.word counter 0
.entry main

main:
  ldi r1, TEN
  ldi r2, counter
loop:
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  addi r1, r1, -1
  bne r1, r0, loop
  sys print
  halt
`
	p, err := Assemble("tiny", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != p.Symbols["main"] {
		t.Errorf("entry = %d, want main at %d", p.Entry, p.Symbols["main"])
	}
	if got := len(p.Code); got != 9 {
		t.Errorf("code length = %d, want 9", got)
	}
	if p.Code[0] != (isa.Instr{Op: isa.OpLdi, Rd: 1, Imm: 10}) {
		t.Errorf("const not folded: %v", p.Code[0])
	}
	if p.Code[1] != (isa.Instr{Op: isa.OpLdi, Rd: 2, Imm: int64(isa.DataBase)}) {
		t.Errorf("data symbol not resolved: %v", p.Code[1])
	}
	if p.Data[isa.DataBase] != 0 {
		t.Errorf("data init = %d, want 0", p.Data[isa.DataBase])
	}
	// Backward branch resolves to the loop label.
	bne := p.Code[6]
	if bne.Op != isa.OpBne || bne.Imm != int64(p.Symbols["loop"]) {
		t.Errorf("branch = %v, want target %d", bne, p.Symbols["loop"])
	}
	// Source map ties instructions to labels.
	if got := p.SiteOf(2); got != "tiny:loop" {
		t.Errorf("SiteOf(2) = %q, want tiny:loop", got)
	}
	if got := p.SiteOf(4); got != "tiny:loop+2" {
		t.Errorf("SiteOf(4) = %q, want tiny:loop+2", got)
	}
}

func TestAssembleForwardReference(t *testing.T) {
	src := `
main:
  jmp done
  halt
done:
  halt
`
	p, err := Assemble("fwd", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != int64(p.Symbols["done"]) {
		t.Errorf("forward jump = %d, want %d", p.Code[0].Imm, p.Symbols["done"])
	}
}

func TestAssembleDataSpaceAndOffsets(t *testing.T) {
	src := `
.word a 7
.space buf 4
.word b 9
main:
  ldi r1, buf
  ld r2, [r1+buf]      ; symbolic offset
  ld r3, [r1+2]
  ld r4, [r1-1]
  st [sp+0], r2
  halt
`
	p, err := Assemble("data", src)
	if err != nil {
		t.Fatal(err)
	}
	base := isa.DataBase
	if p.Data[base] != 7 {
		t.Errorf("a = %d, want 7", p.Data[base])
	}
	for i := uint64(1); i <= 4; i++ {
		if p.Data[base+i] != 0 {
			t.Errorf("buf[%d] = %d, want 0", i-1, p.Data[base+i])
		}
	}
	if p.Data[base+5] != 9 {
		t.Errorf("b = %d, want 9", p.Data[base+5])
	}
	if p.Code[0].Imm != int64(base+1) {
		t.Errorf("buf address = %d, want %d", p.Code[0].Imm, base+1)
	}
	if p.Code[1].Imm != int64(base+1) {
		t.Errorf("symbolic mem offset = %d, want %d", p.Code[1].Imm, base+1)
	}
	if p.Code[3].Imm != -1 {
		t.Errorf("negative mem offset = %d, want -1", p.Code[3].Imm)
	}
	if p.Code[4].Rs1 != isa.SP {
		t.Errorf("sp alias = r%d, want r%d", p.Code[4].Rs1, isa.SP)
	}
}

func TestAssembleAtomicsAndSync(t *testing.T) {
	src := `
.word m 0
.word v 0
main:
  ldi r1, m
  lock [r1+0]
  ldi r2, 1
  ldi r3, v
  xadd r4, [r3+0], r2
  cas r4, [r3+0], r2
  xchg r4, [r3+0], r2
  fence
  unlock [r1+0]
  sys sysnop
  halt
`
	p, err := Assemble("sync", src)
	if err != nil {
		t.Fatal(err)
	}
	var syncCount int
	for _, ins := range p.Code {
		if ins.Op.IsSync() {
			syncCount++
		}
	}
	if syncCount != 7 {
		t.Errorf("sync instruction count = %d, want 7", syncCount)
	}
	if p.Code[9].Imm != isa.SysNop {
		t.Errorf("sys operand = %d, want %d", p.Code[9].Imm, isa.SysNop)
	}
}

func TestAssembleSysByNumber(t *testing.T) {
	p, err := Assemble("n", "main:\n  sys 1\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != isa.SysPrint {
		t.Errorf("numeric syscall = %d, want %d", p.Code[0].Imm, isa.SysPrint)
	}
}

func TestAssembleHexAndNegative(t *testing.T) {
	p, err := Assemble("h", "main:\n  ldi r1, 0x10\n  ldi r2, -3\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != 16 || p.Code[1].Imm != -3 {
		t.Errorf("literals = %d, %d", p.Code[0].Imm, p.Code[1].Imm)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":    "main:\n  frob r1\n",
		"undefined symbol":    "main:\n  ldi r1, nosuch\n  halt\n",
		"duplicate label":     "a:\n  nop\na:\n  halt\n",
		"duplicate constant":  ".const X = 1\n.const X = 2\nmain:\n  halt\n",
		"duplicate data name": ".word d 0\n.word d 1\nmain:\n  halt\n",
		"bad register":        "main:\n  mov r99, r1\n  halt\n",
		"operand count":       "main:\n  add r1, r2\n  halt\n",
		"unknown directive":   ".frobnicate x\nmain:\n  halt\n",
		"unknown syscall":     "main:\n  sys frob\n  halt\n",
		"bad mem operand":     "main:\n  ld r1, r2\n  halt\n",
		"negative space":      ".space s -1\nmain:\n  halt\n",
		"missing entry":       ".entry nowhere\nmain:\n  halt\n",
		"branch out of range": "main:\n  jmp 99\n  halt\n",
	}
	for name, src := range cases {
		if _, err := Assemble("bad", src); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Assemble("lines", "main:\n  nop\n  frob r1\n  halt\n")
	if err == nil {
		t.Fatal("expected error")
	}
	var ae *Error
	if !asErr(err, &ae) {
		t.Fatalf("error type = %T, want *Error", err)
	}
	if ae.Line != 3 {
		t.Errorf("error line = %d, want 3", ae.Line)
	}
	if !strings.Contains(err.Error(), "lines:3:") {
		t.Errorf("error text = %q, want file:line prefix", err)
	}
}

// asErr is a tiny errors.As stand-in to keep the test explicit.
func asErr(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "; leading comment\n\nmain:  ; trailing comment\n  nop ; mid\n\n  halt\n"
	p, err := Assemble("c", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 2 {
		t.Errorf("code length = %d, want 2", len(p.Code))
	}
}

func TestRoundTripThroughDisassembler(t *testing.T) {
	// Every instruction the assembler can produce should disassemble to a
	// string the assembler accepts again, producing identical code.
	src := `
.word g 5
main:
  nop
  ldi r1, 42
  mov r2, r1
  add r3, r1, r2
  sub r3, r1, r2
  mul r3, r1, r2
  and r3, r1, r2
  or r3, r1, r2
  xor r3, r1, r2
  shl r3, r1, r2
  shr r3, r1, r2
  addi r3, r1, 5
  andi r3, r1, 5
  ori r3, r1, 5
  xori r3, r1, 5
  shli r3, r1, 2
  shri r3, r1, 2
  muli r3, r1, 3
  not r3, r1
  neg r3, r1
  ld r4, [r1+0]
  st [r1+0], r4
  beq r1, r2, main
  bne r1, r2, main
  blt r1, r2, main
  bge r1, r2, main
  bltu r1, r2, main
  bgeu r1, r2, main
  jmp main
  jmpr r1
  call main
  ret
  cas r4, [r1+0], r2
  xadd r4, [r1+0], r2
  xchg r4, [r1+0], r2
  fence
  lock [r1+0]
  unlock [r1+0]
  sys print
  halt
`
	p1, err := Assemble("rt", src)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("main:\n")
	for _, ins := range p1.Code {
		b.WriteString("  " + ins.String() + "\n")
	}
	p2, err := Assemble("rt", b.String())
	if err != nil {
		t.Fatalf("re-assembling disassembly: %v\n%s", err, b.String())
	}
	if len(p1.Code) != len(p2.Code) {
		t.Fatalf("length mismatch %d vs %d", len(p1.Code), len(p2.Code))
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Errorf("pc %d: %v vs %v", i, p1.Code[i], p2.Code[i])
		}
	}
}

func TestDivModAssembles(t *testing.T) {
	p, err := Assemble("dm", "main:\n  div r1, r2, r3\n  mod r1, r2, r3\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Op != isa.OpDiv || p.Code[1].Op != isa.OpMod {
		t.Error("div/mod mis-assembled")
	}
}
