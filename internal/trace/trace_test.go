package trace

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

func sampleLog() *Log {
	p := isa.NewProgram("sample")
	p.Code = []isa.Instr{
		{Op: isa.OpLdi, Rd: 1, Imm: 5},
		{Op: isa.OpSys, Imm: isa.SysPrint},
		{Op: isa.OpHalt},
	}
	p.Symbols["main"] = 0
	p.Data[isa.DataBase] = 11
	t0 := &ThreadLog{
		TID:     0,
		InitPC:  0,
		Retired: 3,
		Seqs: []Sequencer{
			{Idx: 0, TS: 0, Kind: SeqStart, Aux: -1},
			{Idx: 1, TS: 1, Kind: SeqSyscall, Aux: isa.SysPrint},
			{Idx: 3, TS: 2, Kind: SeqEnd, Aux: -1},
		},
		Loads:     []LoadRec{{Idx: 0, Addr: isa.DataBase, Val: 11}},
		SysRets:   []SysRec{{Idx: 1, Res: 0}},
		EndReason: EndHalted,
		EndTS:     2,
	}
	t0.InitRegs[isa.SP] = isa.StackTop(0)
	return &Log{Prog: p, Seed: 42, Threads: []*ThreadLog{t0}, FinalClock: 2, TotalSteps: 3}
}

// TestMarshalUnmarshalRoundTrip drives the legacy v1 decoder field by
// field.
func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	log := sampleLog()
	got, err := unmarshalV1(marshalV1(log))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != log.Seed || got.FinalClock != log.FinalClock ||
		got.TotalSteps != log.TotalSteps || got.Deadlocked != log.Deadlocked {
		t.Error("run metadata mismatch")
	}
	if got.Prog.Name != "sample" || len(got.Prog.Code) != 3 {
		t.Error("program mismatch")
	}
	if got.Prog.Code[0] != log.Prog.Code[0] {
		t.Error("code mismatch")
	}
	if got.Prog.Data[isa.DataBase] != 11 {
		t.Error("data mismatch")
	}
	if got.Prog.Symbols["main"] != 0 {
		t.Error("symbols mismatch")
	}
	gt, lt := got.Threads[0], log.Threads[0]
	if gt.TID != lt.TID || gt.Retired != lt.Retired || gt.EndReason != lt.EndReason {
		t.Error("thread header mismatch")
	}
	if gt.InitRegs != lt.InitRegs {
		t.Error("init regs mismatch")
	}
	if !reflect.DeepEqual(gt.Loads, lt.Loads) {
		t.Errorf("loads mismatch: %v vs %v", gt.Loads, lt.Loads)
	}
	if !reflect.DeepEqual(gt.SysRets, lt.SysRets) {
		t.Errorf("sysrets mismatch: %v vs %v", gt.SysRets, lt.SysRets)
	}
	if !reflect.DeepEqual(gt.Seqs, lt.Seqs) {
		t.Errorf("seqs mismatch: %v vs %v", gt.Seqs, lt.Seqs)
	}
}

// bothFormats serializes log as a v2 container and as a legacy v1
// container, for tests that hold for either decoder.
func bothFormats(log *Log) map[string][]byte {
	return map[string][]byte{"v1": compressV1(marshalV1(log)), "v2": MarshalV2(log)}
}

func TestFaultRecordRoundTrip(t *testing.T) {
	log := sampleLog()
	log.Threads[0].EndReason = EndFaulted
	log.Threads[0].Fault = &FaultRec{Kind: 2, PC: 7, Addr: 0x99}
	for name, data := range bothFormats(log) {
		got, _, err := Decode(data, DecodeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f := got.Threads[0].Fault
		if f == nil || f.Kind != 2 || f.PC != 7 || f.Addr != 0x99 {
			t.Errorf("%s: fault = %+v", name, f)
		}
	}
}

// TestCompressedContainerRoundTrip: a legacy v1 container reads back
// through Decode.
func TestCompressedContainerRoundTrip(t *testing.T) {
	got, _, err := Decode(compressV1(marshalV1(sampleLog())), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Prog.Name != "sample" || got.Threads[0].Retired != 3 {
		t.Error("round trip via container lost data")
	}
}

func TestCorruptInputsRejected(t *testing.T) {
	log := sampleLog()
	raw := marshalV1(log)

	if _, err := unmarshalV1([]byte("XXXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := unmarshalV1(raw[:len(raw)/2]); err == nil {
		t.Error("truncated log accepted")
	}
	bad := append([]byte{}, raw...)
	bad[len(rawMagic)] = 99 // version byte
	if _, err := unmarshalV1(bad); err == nil {
		t.Error("future version accepted")
	}
	if _, err := decompressV1([]byte("NOTRRLZ")); err == nil {
		t.Error("bad container magic accepted")
	}
	comp := compressV1(raw)
	if _, err := decompressV1(comp[:len(comp)-3]); err == nil {
		t.Error("truncated container accepted")
	}
}

func TestValidateCatchesBrokenLogs(t *testing.T) {
	check := func(name string, mutate func(*Log)) {
		log := sampleLog()
		mutate(log)
		if err := log.Validate(); err == nil {
			t.Errorf("%s: invalid log accepted", name)
		}
	}
	check("no program", func(l *Log) { l.Prog = nil })
	check("too few sequencers", func(l *Log) { l.Threads[0].Seqs = l.Threads[0].Seqs[:1] })
	check("missing start", func(l *Log) { l.Threads[0].Seqs[0].Kind = SeqAtomic })
	check("missing end", func(l *Log) { l.Threads[0].Seqs[2].Kind = SeqAtomic })
	check("end idx wrong", func(l *Log) { l.Threads[0].Seqs[2].Idx = 99 })
	check("ts not increasing", func(l *Log) { l.Threads[0].Seqs[1].TS = 0 })
	check("load beyond retirement", func(l *Log) { l.Threads[0].Loads[0].Idx = 99 })
	check("fault without record", func(l *Log) {
		l.Threads[0].EndReason = EndFaulted
		l.Threads[0].Fault = nil
	})
}

func TestStatsSaneAndCompressionHelps(t *testing.T) {
	log := sampleLog()
	// Pad with a repetitive load stream so flate has something to chew on.
	tl := log.Threads[0]
	for i := uint64(0); i < 500; i++ {
		tl.Loads = append(tl.Loads, LoadRec{Idx: 1, Addr: isa.DataBase, Val: 11})
	}
	tl.Loads[len(tl.Loads)-1].Idx = 2
	tl.Retired = 3
	tl.Seqs[2].Idx = 3
	log.TotalSteps = 3
	s := Stats(log)
	if s.RawBytes == 0 || s.CompressedBytes == 0 {
		t.Fatal("empty stats")
	}
	if s.CompressedBytes >= s.RawBytes {
		t.Errorf("compression did not shrink: %d -> %d", s.RawBytes, s.CompressedBytes)
	}
	if s.RawBitsPerInstr() <= 0 || s.CompressedBitsPerInstr() <= 0 {
		t.Error("bits/instruction should be positive")
	}
	if s.BytesPerBillion() <= 0 {
		t.Error("extrapolation should be positive")
	}
	var zero SizeStats
	if zero.RawBitsPerInstr() != 0 || zero.CompressedBitsPerInstr() != 0 || zero.BytesPerBillion() != 0 {
		t.Error("zero stats should not divide by zero")
	}
}

func TestSeqKindStrings(t *testing.T) {
	kinds := []SeqKind{SeqStart, SeqAtomic, SeqFence, SeqLock, SeqUnlock, SeqSyscall, SeqEnd}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate kind string %q", s)
		}
		seen[s] = true
	}
	if SeqKind(99).String() != "seq(99)" {
		t.Error("unknown kind should render numerically")
	}
}

func TestKindForOp(t *testing.T) {
	cases := map[isa.Op]SeqKind{
		isa.OpCas:    SeqAtomic,
		isa.OpXadd:   SeqAtomic,
		isa.OpXchg:   SeqAtomic,
		isa.OpFence:  SeqFence,
		isa.OpLock:   SeqLock,
		isa.OpUnlock: SeqUnlock,
		isa.OpSys:    SeqSyscall,
	}
	for op, want := range cases {
		if got := KindForOp(op); got != want {
			t.Errorf("KindForOp(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestThreadLookupAndInstructionCount(t *testing.T) {
	log := sampleLog()
	if log.Thread(0) == nil || log.Thread(5) != nil {
		t.Error("Thread lookup wrong")
	}
	if log.Instructions() != 3 {
		t.Errorf("Instructions = %d, want 3", log.Instructions())
	}
}

func TestEndReasonStrings(t *testing.T) {
	for _, r := range []EndReason{EndHalted, EndExited, EndFaulted, EndRunning} {
		if s := r.String(); s == "" || s[0] == 'e' && s[1] == 'n' && s[2] == 'd' {
			t.Errorf("EndReason %d has no name: %q", r, s)
		}
	}
}

// TestUnmarshalTotalOnAllPrefixes: parsing any strict prefix of a valid
// v1 log must fail cleanly (no panic, no acceptance). This sweeps every
// error branch in the legacy decoder.
func TestUnmarshalTotalOnAllPrefixes(t *testing.T) {
	log := sampleLog()
	log.Threads[0].Fault = &FaultRec{Kind: 1, PC: 2, Addr: 3}
	log.Threads[0].EndReason = EndFaulted
	log.Threads[0].KeyFrames = []KeyFrame{
		{Idx: 1, PC: 1, View: []LoadRec{{Addr: 0x1000, Val: 11}}},
		{Idx: 2, PC: 2},
	}
	raw := marshalV1(log)
	for n := 0; n < len(raw); n++ {
		if _, err := unmarshalV1(raw[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(raw))
		}
	}
	if _, err := unmarshalV1(raw); err != nil {
		t.Fatalf("full log rejected: %v", err)
	}
}

// TestUnmarshalTotalOnByteFlips: flipping any single byte must never
// panic; it may error or may produce a different-but-valid log.
func TestUnmarshalTotalOnByteFlips(t *testing.T) {
	raw := marshalV1(sampleLog())
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xFF
		log, err := unmarshalV1(mut)
		if err == nil {
			if vErr := log.Validate(); vErr != nil {
				t.Fatalf("byte %d: accepted an invalid log: %v", i, vErr)
			}
		}
	}
}

func TestKeyFrameValidation(t *testing.T) {
	log := sampleLog()
	log.Threads[0].KeyFrames = []KeyFrame{{Idx: 2}, {Idx: 2}}
	if err := log.Validate(); err == nil {
		t.Error("non-increasing key frames accepted")
	}
	log.Threads[0].KeyFrames = []KeyFrame{{Idx: 99}}
	if err := log.Validate(); err == nil {
		t.Error("key frame beyond retirement accepted")
	}
	log.Threads[0].KeyFrames = []KeyFrame{{Idx: 1}, {Idx: 3}}
	if err := log.Validate(); err != nil {
		t.Errorf("valid key frames rejected: %v", err)
	}
}

func TestKeyFrameRoundTrip(t *testing.T) {
	log := sampleLog()
	log.Threads[0].KeyFrames = []KeyFrame{
		{Idx: 1, PC: 7, View: []LoadRec{{Addr: 0x1000, Val: 5}, {Addr: 0x2000, Val: 9}}},
	}
	log.Threads[0].KeyFrames[0].Regs[3] = 42
	for name, data := range bothFormats(log) {
		got, _, err := Decode(data, DecodeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kf := got.Threads[0].KeyFrames
		if len(kf) != 1 || kf[0].Idx != 1 || kf[0].PC != 7 || kf[0].Regs[3] != 42 {
			t.Fatalf("%s: key frame header lost: %+v", name, kf)
		}
		if len(kf[0].View) != 2 || kf[0].View[1].Addr != 0x2000 || kf[0].View[1].Val != 9 {
			t.Fatalf("%s: key frame view lost: %+v", name, kf[0].View)
		}
	}
}
