package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStringUnique(t *testing.T) {
	seen := make(map[string]Op)
	for op := Op(0); op.Valid(); op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("op %d has no mnemonic", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("ops %d and %d share mnemonic %q", prev, op, s)
		}
		seen[s] = op
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("invalid op string = %q", got)
	}
}

func TestIsSyncCoversAtomicsAndSyscalls(t *testing.T) {
	syncOps := []Op{OpCas, OpXadd, OpXchg, OpFence, OpLock, OpUnlock, OpSys}
	for _, op := range syncOps {
		if !op.IsSync() {
			t.Errorf("%v should be a sync point", op)
		}
	}
	nonSync := []Op{OpNop, OpLd, OpSt, OpAdd, OpBeq, OpCall, OpRet, OpHalt}
	for _, op := range nonSync {
		if op.IsSync() {
			t.Errorf("%v should not be a sync point", op)
		}
	}
}

func TestSyscallNames(t *testing.T) {
	for n := int64(0); n < SyscallCount; n++ {
		name := SyscallName(n)
		if strings.HasPrefix(name, "sys(") {
			t.Errorf("syscall %d has no name", n)
		}
		if got := SyscallNumber(name); got != n {
			t.Errorf("SyscallNumber(%q) = %d, want %d", name, got, n)
		}
	}
	if SyscallNumber("bogus") != -1 {
		t.Error("unknown syscall name should map to -1")
	}
	if SyscallName(99) != "sys(99)" {
		t.Error("unknown syscall number should render numerically")
	}
}

func randInstr(r *rand.Rand) Instr {
	return Instr{
		Op:  Op(r.Intn(OpCount)),
		Rd:  uint8(r.Intn(NumRegs)),
		Rs1: uint8(r.Intn(NumRegs)),
		Rs2: uint8(r.Intn(NumRegs)),
		Imm: r.Int63() - r.Int63(),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randInstr(r)
		got, err := Decode(Encode(nil, ins))
		return err == nil && got == ins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeCodeRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		code := make([]Instr, int(n)%64)
		for i := range code {
			code[i] = randInstr(r)
		}
		got, err := DecodeCode(EncodeCode(code))
		if err != nil || len(got) != len(code) {
			return false
		}
		for i := range code {
			if got[i] != code[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, InstrSize-1)); err == nil {
		t.Error("short buffer should fail")
	}
	bad := Encode(nil, Instr{Op: OpNop})
	bad[0] = 250
	if _, err := Decode(bad); err == nil {
		t.Error("invalid opcode should fail")
	}
	bad2 := Encode(nil, Instr{Op: OpAdd})
	bad2[1] = NumRegs
	if _, err := Decode(bad2); err == nil {
		t.Error("register out of range should fail")
	}
	if _, err := DecodeCode(make([]byte, InstrSize+1)); err == nil {
		t.Error("ragged code segment should fail")
	}
}

func TestProgramValidate(t *testing.T) {
	p := NewProgram("t")
	p.Code = []Instr{
		{Op: OpLdi, Rd: 1, Imm: 7},
		{Op: OpJmp, Imm: 0},
		{Op: OpHalt},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	bad := NewProgram("b")
	bad.Code = []Instr{{Op: OpJmp, Imm: 99}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range jump accepted")
	}

	badSys := NewProgram("s")
	badSys.Code = []Instr{{Op: OpSys, Imm: SyscallCount}}
	if err := badSys.Validate(); err == nil {
		t.Error("unknown syscall accepted")
	}

	badEntry := NewProgram("e")
	badEntry.Code = []Instr{{Op: OpHalt}}
	badEntry.Entry = 5
	if err := badEntry.Validate(); err == nil {
		t.Error("entry outside code accepted")
	}

	badReg := NewProgram("r")
	badReg.Code = []Instr{{Op: OpAdd, Rd: NumRegs}}
	if err := badReg.Validate(); err == nil {
		t.Error("register out of range accepted")
	}
}

func TestSiteOf(t *testing.T) {
	p := NewProgram("prog")
	p.Code = make([]Instr, 6)
	p.Symbols["start"] = 0
	p.Symbols["loop"] = 3
	p.Sources = []SourceLoc{
		{Line: 1, Symbol: "start", Offset: 0},
		{Line: 2, Symbol: "start", Offset: 1},
		{Line: 3, Symbol: "start", Offset: 2},
		{Line: 4, Symbol: "loop", Offset: 0},
		{Line: 5, Symbol: "loop", Offset: 1},
		{Line: 6, Symbol: "loop", Offset: 2},
	}
	cases := map[int]string{
		0: "prog:start",
		2: "prog:start+2",
		3: "prog:loop",
		5: "prog:loop+2",
	}
	for pc, want := range cases {
		if got := p.SiteOf(pc); got != want {
			t.Errorf("SiteOf(%d) = %q, want %q", pc, got, want)
		}
	}
	if got := p.SiteOf(99); got != "prog:pc99" {
		t.Errorf("SiteOf(out of range) = %q", got)
	}
}

func TestSiteOfFallsBackToSymbols(t *testing.T) {
	p := NewProgram("prog")
	p.Code = make([]Instr, 4)
	p.Symbols["main"] = 1
	if got := p.SiteOf(3); got != "prog:main+2" {
		t.Errorf("fallback SiteOf = %q, want prog:main+2", got)
	}
	if got := p.SiteOf(0); got != "prog:pc0" {
		t.Errorf("SiteOf before any label = %q, want prog:pc0", got)
	}
}

func TestDisassembleMentionsEverything(t *testing.T) {
	p := NewProgram("demo")
	p.Code = []Instr{
		{Op: OpLdi, Rd: 1, Imm: 42},
		{Op: OpSys, Imm: SysPrint},
		{Op: OpHalt},
	}
	p.Symbols["main"] = 0
	p.Data[DataBase] = 7
	out := p.Disassemble()
	for _, want := range []string{"demo", "main:", "ldi r1, 42", "sys print", "halt", "data"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := map[string]Instr{
		"nop":                 {Op: OpNop},
		"ldi r3, -5":          {Op: OpLdi, Rd: 3, Imm: -5},
		"mov r1, r2":          {Op: OpMov, Rd: 1, Rs1: 2},
		"add r1, r2, r3":      {Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
		"addi r1, r2, 9":      {Op: OpAddi, Rd: 1, Rs1: 2, Imm: 9},
		"ld r4, [r5+8]":       {Op: OpLd, Rd: 4, Rs1: 5, Imm: 8},
		"st [r5+8], r4":       {Op: OpSt, Rs1: 5, Rs2: 4, Imm: 8},
		"beq r1, r2, 10":      {Op: OpBeq, Rs1: 1, Rs2: 2, Imm: 10},
		"jmp 3":               {Op: OpJmp, Imm: 3},
		"jmpr r7":             {Op: OpJmpr, Rs1: 7},
		"cas r1, [r2+0], r3":  {Op: OpCas, Rd: 1, Rs1: 2, Rs2: 3},
		"xadd r1, [r2+4], r3": {Op: OpXadd, Rd: 1, Rs1: 2, Rs2: 3, Imm: 4},
		"lock [r2+0]":         {Op: OpLock, Rs1: 2},
		"unlock [r2+0]":       {Op: OpUnlock, Rs1: 2},
		"sys spawn":           {Op: OpSys, Imm: SysSpawn},
	}
	for want, ins := range cases {
		if got := ins.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", ins.Op, got, want)
		}
	}
}

func TestStackTopDisjoint(t *testing.T) {
	for tid := 0; tid < 8; tid++ {
		lo, hi := StackTop(tid)-StackWords, StackTop(tid)
		nextLo := StackTop(tid+1) - StackWords
		if hi > nextLo {
			t.Fatalf("stacks for tid %d and %d overlap", tid, tid+1)
		}
		if lo < StackBase {
			t.Fatalf("stack for tid %d below StackBase", tid)
		}
	}
}
