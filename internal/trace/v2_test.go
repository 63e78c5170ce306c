package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
)

// richLog builds a multi-thread log exercising every v2 encoding: sparse
// registers, signed address deltas over spread-out addresses, sequencers
// with and without aux payloads, key frames, a fault record.
func richLog() *Log {
	p := isa.NewProgram("rich")
	p.Code = []isa.Instr{
		{Op: isa.OpLdi, Rd: 1, Imm: 5},
		{Op: isa.OpSys, Imm: isa.SysPrint},
		{Op: isa.OpHalt},
	}
	p.Symbols["main"] = 0
	p.Symbols["worker"] = 1
	p.Data[isa.DataBase] = 11
	p.Data[isa.DataBase+64] = 7
	log := &Log{Prog: p, Seed: -3, FinalClock: 40, TotalSteps: 120}
	for tid := 0; tid < 3; tid++ {
		t := &ThreadLog{
			TID:     tid,
			StartTS: uint64(tid),
			EndTS:   uint64(30 + tid),
			InitPC:  tid,
			Retired: 40,
			Seqs: []Sequencer{
				{Idx: 0, TS: uint64(tid*10 + 1), Kind: SeqStart, Aux: -1},
				{Idx: 5, TS: uint64(tid*10 + 2), Kind: SeqSyscall, Aux: isa.SysPrint},
				{Idx: 9, TS: uint64(tid*10 + 3), Kind: SeqLock, Aux: 0},
				{Idx: 40, TS: uint64(tid*10 + 4), Kind: SeqEnd, Aux: -1},
			},
			SysRets:   []SysRec{{Idx: 5, Res: uint64(tid)}},
			EndReason: EndHalted,
		}
		t.InitRegs[isa.SP] = isa.StackTop(tid)
		t.InitRegs[3] = uint64(tid) * 1000
		base := uint64(0x7f00_1234_0000) + uint64(tid)<<20
		for i := 0; i < 20; i++ {
			t.Loads = append(t.Loads, LoadRec{
				Idx:  uint64(i * 2),
				Addr: base + uint64((i%5)*8),
				Val:  uint64(i) * 2654435761,
			})
		}
		t.KeyFrames = []KeyFrame{{
			Idx: 20, PC: 1,
			View: []LoadRec{{Addr: base, Val: 1}, {Addr: base + 8, Val: 2}},
		}}
		t.KeyFrames[0].Regs[2] = 99
		log.Threads = append(log.Threads, t)
	}
	log.Threads[2].EndReason = EndFaulted
	log.Threads[2].Fault = &FaultRec{Kind: 1, PC: 2, Addr: 0xdead}
	return log
}

// logsEqual compares two logs by their v1 serialization: an encoder
// independent of the v2 one under test.
func logsEqual(a, b *Log) bool { return bytes.Equal(marshalV1(a), marshalV1(b)) }

func TestV2RoundTrip(t *testing.T) {
	log := richLog()
	got, faults, err := Decode(MarshalV2(log), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 0 {
		t.Fatalf("unexpected faults %v", faults)
	}
	if !logsEqual(got, log) {
		t.Error("decoded log differs from original")
	}
}

func TestV2SampleLogRoundTrip(t *testing.T) {
	log := sampleLog()
	got, _, err := Decode(MarshalV2(log), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !logsEqual(got, log) {
		t.Error("decoded log differs from original")
	}
}

func TestDecodeSniffsFormats(t *testing.T) {
	log := sampleLog()
	cases := map[string][]byte{
		"v1-container": compressV1(marshalV1(log)),
		"v1-raw":       marshalV1(log),
		"v2":           MarshalV2(log),
	}
	for name, data := range cases {
		got, _, err := Decode(data, DecodeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !logsEqual(got, log) {
			t.Errorf("%s: decoded log differs", name)
		}
	}
	if _, _, err := Decode([]byte("NOTAMAGIC-AT-ALL"), DecodeOptions{}); !errors.Is(err, ErrBadMagic) {
		t.Errorf("garbage: got %v, want ErrBadMagic", err)
	}
	if _, _, err := Decode(nil, DecodeOptions{}); !errors.Is(err, ErrBadMagic) {
		t.Errorf("empty: got %v, want ErrBadMagic", err)
	}
}

// TestWriteReadRoundTrip: Write emits exactly MarshalV2's bytes, and
// Decode reads them back to the log.
func TestWriteReadRoundTrip(t *testing.T) {
	log := richLog()
	var buf bytes.Buffer
	if err := Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), MarshalV2(log)) {
		t.Fatal("Write did not emit the MarshalV2 container")
	}
	got, _, err := Decode(buf.Bytes(), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !logsEqual(got, log) {
		t.Error("round trip differs")
	}
}

// TestV2FlagsRejected: the flags byte is 0 in every container this
// package writes; a set bit — including bit 0, which once announced
// deflated segments — is rejected with a typed error.
func TestV2FlagsRejected(t *testing.T) {
	for _, flags := range []byte{0x01, 0x80} {
		data := MarshalV2(sampleLog())
		data[6] = flags
		_, _, err := Decode(data, DecodeOptions{})
		var de *DecodeError
		if !errors.As(err, &de) || de.Section != "v2 header" {
			t.Errorf("flags %#x: Decode err = %v, want a v2 header *DecodeError", flags, err)
		}
	}
}

// TestV2AuxRoundTrip pins the aux-presence flag: a non-syscall sequencer
// with a meaningful aux survives, and the common aux=-1 case costs no
// byte.
func TestV2AuxRoundTrip(t *testing.T) {
	log := sampleLog()
	log.Threads[0].Seqs[1] = Sequencer{Idx: 1, TS: 1, Kind: SeqAtomic, Aux: 7}
	got, _, err := Decode(MarshalV2(log), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s := got.Threads[0].Seqs[1]; s.Kind != SeqAtomic || s.Aux != 7 {
		t.Errorf("aux sequencer mangled: %+v", s)
	}
}

func TestV2TruncationsRejectedTyped(t *testing.T) {
	data := MarshalV2(richLog())
	for n := 0; n < len(data); n++ {
		log, _, err := Decode(data[:n], DecodeOptions{})
		if err == nil {
			t.Fatalf("prefix %d/%d decoded (%d threads)", n, len(data), len(log.Threads))
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("prefix %d: untyped error %v", n, err)
		}
	}
}

func TestV2ByteFlipsRejectedOrValidTyped(t *testing.T) {
	orig := MarshalV2(richLog())
	for i := 0; i < len(orig); i++ {
		for _, bit := range []byte{0x01, 0x80} {
			data := append([]byte(nil), orig...)
			data[i] ^= bit
			log, _, err := Decode(data, DecodeOptions{Salvage: true})
			if err == nil {
				if verr := log.Validate(); verr != nil {
					t.Fatalf("flip %d: accepted invalid log: %v", i, verr)
				}
				continue
			}
			var de *DecodeError
			var ve *ValidateError
			if !errors.As(err, &de) && !errors.As(err, &ve) {
				t.Fatalf("flip %d: untyped error %v", i, err)
			}
		}
	}
}

// TestV2ThreadQuarantine corrupts one thread's segment payload: strict
// decode condemns the log, quarantine decode drops exactly that thread
// and keeps the rest.
func TestV2ThreadQuarantine(t *testing.T) {
	log := richLog()
	data := MarshalV2(log)
	idx, err := parseV2Index(data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the last thread's payload.
	e := idx.entries[3]
	pos := idx.areaStart + int(e.off) + int(e.encLen)/2
	bad := append([]byte(nil), data...)
	bad[pos] ^= 0x55

	if _, _, err := Decode(bad, DecodeOptions{}); err == nil {
		t.Fatal("strict decode accepted a corrupt segment")
	}
	got, faults, err := Decode(bad, DecodeOptions{Salvage: true})
	if err != nil {
		t.Fatalf("quarantine decode failed: %v", err)
	}
	if len(faults) != 1 || faults[0].Segment != 3 || faults[0].TID != 2 {
		t.Fatalf("faults = %v, want segment 3 thread 2", faults)
	}
	if !errors.Is(faults[0].Err, errChecksum) {
		t.Errorf("fault error = %v, want checksum mismatch", faults[0].Err)
	}
	if len(got.Threads) != 2 || got.Thread(2) != nil {
		t.Fatalf("salvaged log has wrong threads: %d", len(got.Threads))
	}
	// The surviving threads decode identically to the intact container.
	want, _, _ := Decode(data, DecodeOptions{})
	want.Threads = want.Threads[:2]
	if !logsEqual(got, want) {
		t.Error("surviving threads differ from intact decode")
	}
}

// TestV2IndexCorruptionFailsLog: damage to the header or index is never
// salvageable — quarantine mode still rejects the whole log.
func TestV2IndexCorruptionFailsLog(t *testing.T) {
	data := MarshalV2(richLog())
	for _, pos := range []int{8, 13, v2HeaderLen + 2, v2HeaderLen + v2IndexEntryLen + 16} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0xff
		if _, _, err := Decode(bad, DecodeOptions{Salvage: true}); err == nil {
			t.Errorf("index byte %d corrupt: decode accepted", pos)
		}
	}
}

// encLenOverflowContainer crafts a container whose first thread entry
// carries an encLen (and equal rawLen) of 2^64-off, so accumulating
// segment offsets would wrap the running sum back to 0; the remaining
// entries are repacked so every pre-wrap-check invariant (packed
// offsets, final sum landing on the container end) still holds. The
// index checksum is recomputed, so only the index's length checks can
// reject it.
func encLenOverflowContainer() []byte {
	data := MarshalV2(richLog())
	idx, err := parseV2Index(data)
	if err != nil {
		panic(err)
	}
	setLen := func(i int, n uint64) {
		entry := data[v2HeaderLen+i*v2IndexEntryLen:]
		binary.LittleEndian.PutUint64(entry[16:24], n) // encoded
		binary.LittleEndian.PutUint64(entry[24:32], n) // raw
	}
	setLen(1, -idx.entries[1].off)
	for i := 2; i < len(idx.entries); i++ {
		binary.LittleEndian.PutUint64(data[v2HeaderLen+i*v2IndexEntryLen+8:], 0)
		setLen(i, 0)
	}
	setLen(len(idx.entries)-1, uint64(len(data)-idx.areaStart))
	binary.LittleEndian.PutUint32(data[12:16],
		crc32.Checksum(data[v2HeaderLen:idx.areaStart], crcTable))
	return data
}

// TestV2IndexEncLenOverflow: an index entry whose encoded length would
// wrap the running offset sum past 2^64 must fail with a typed error,
// never reach segmentPayload with a negative int length (regression:
// slice bounds panic on a crafted container). The size cap rejects it
// first; the wrap guard behind it stays as defense in depth.
func TestV2IndexEncLenOverflow(t *testing.T) {
	data := encLenOverflowContainer()
	for _, quarantine := range []bool{false, true} {
		_, _, err := Decode(data, DecodeOptions{Salvage: quarantine})
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("quarantine=%v: err = %v, want *DecodeError", quarantine, err)
		}
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("quarantine=%v: err = %v, want %v", quarantine, err, ErrTooLarge)
		}
	}
}

// TestV2AllThreadsCorruptFailsLog: when no thread survives, quarantine
// mode condemns the log instead of returning an empty husk.
func TestV2AllThreadsCorruptFailsLog(t *testing.T) {
	data := MarshalV2(sampleLog()) // one thread
	idx, err := parseV2Index(data)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[idx.areaStart+int(idx.entries[1].off)] ^= 0x40
	if _, _, err := Decode(bad, DecodeOptions{Salvage: true}); err == nil {
		t.Fatal("decode accepted a log with zero surviving threads")
	}
}

func TestV2BoundedAllocation(t *testing.T) {
	data := MarshalV2(richLog())
	budget := uint64(64*len(data)) + 1<<20
	for _, pos := range []int{8, 40, 100, len(data) / 2, len(data) - 10} {
		bad := append([]byte(nil), data...)
		// Splice a maximal varint over one byte, then re-decode.
		huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
		bad = append(bad[:pos:pos], append(huge, bad[pos+1:]...)...)
		alloc := allocDelta(func() {
			Decode(bad, DecodeOptions{Salvage: true})
		})
		if alloc > budget {
			t.Errorf("splice at %d: allocated %d bytes for %d input (budget %d)",
				pos, alloc, len(bad), budget)
		}
	}
}

// TestV2RawSmallerOnLoadHeavyLogs pins the §5.1 win the format was
// designed for: on a load-heavy log with realistic (large, clustered)
// addresses, v2's signed address deltas and sparse registers beat v1's
// absolute addresses despite the 40-byte-per-segment index.
func TestV2RawSmallerOnLoadHeavyLogs(t *testing.T) {
	log := richLog()
	v1 := len(marshalV1(log))
	v2 := Stats(log)
	if v2.RawBytes >= v1 {
		t.Errorf("v2 raw %d >= v1 raw %d", v2.RawBytes, v1)
	}
}

// TestLegacyFilesDecodeToV2Twins: the checked-in v1 recordings
// re-encode to their v2 twins byte for byte (the same executions
// recorded as v2 by the last writer of v1).
func TestLegacyFilesDecodeToV2Twins(t *testing.T) {
	legacy := filepath.Join("..", "..", "testdata", "legacy")
	for _, name := range []string{"exec01-0.rlog", "exec11-0.rlog"} {
		v1, err := os.ReadFile(filepath.Join(legacy, "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(legacy, "v2", name))
		if err != nil {
			t.Fatal(err)
		}
		log, _, err := Decode(v1, DecodeOptions{})
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if !bytes.Equal(MarshalV2(log), want) {
			t.Errorf("%s: MarshalV2 of the decoded log differs from the v2 twin", name)
		}
	}
}
