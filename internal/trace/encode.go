package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"sort"

	"repro/internal/isa"
)

type encoder struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (e *encoder) u(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf.Write(e.tmp[:n])
}

func (e *encoder) i(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.buf.Write(e.tmp[:n])
}

func (e *encoder) str(s string) {
	e.u(uint64(len(s)))
	e.buf.WriteString(s)
}

func (e *encoder) bytes(b []byte) {
	e.u(uint64(len(b)))
	e.buf.Write(b)
}

// meta writes the program and the run metadata, the block v1 and v2 lay
// out alike. The data segment is sorted by address and the symbols by
// name, for deterministic bytes. Sources are not serialized: SiteOf
// falls back to symbol-relative naming, which produces identical site
// ids.
func (e *encoder) meta(log *Log) {
	p := log.Prog
	e.str(p.Name)
	e.bytes(isa.EncodeCode(p.Code))
	e.u(uint64(p.Entry))
	addrs := make([]uint64, 0, len(p.Data))
	for a := range p.Data {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	e.u(uint64(len(addrs)))
	prevAddr := uint64(0)
	for _, a := range addrs {
		e.u(a - prevAddr)
		prevAddr = a
		e.u(p.Data[a])
	}
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	e.u(uint64(len(names)))
	for _, n := range names {
		e.str(n)
		e.u(uint64(p.Symbols[n]))
	}

	e.i(log.Seed)
	e.u(log.FinalClock)
	e.u(log.TotalSteps)
	if log.Deadlocked {
		e.u(1)
	} else {
		e.u(0)
	}
}

// fault writes a thread's optional fault record.
func (e *encoder) fault(f *FaultRec) {
	if f == nil {
		e.u(0)
		return
	}
	e.u(1)
	e.u(uint64(f.Kind))
	e.u(uint64(f.PC))
	e.u(f.Addr)
}

// sysRets writes a thread's syscall-result stream.
func (e *encoder) sysRets(recs []SysRec) {
	e.u(uint64(len(recs)))
	prevIdx := uint64(0)
	for _, s := range recs {
		e.u(s.Idx - prevIdx)
		prevIdx = s.Idx
		e.u(s.Res)
	}
}

// view writes a key frame's memory view.
func (e *encoder) view(view []LoadRec) {
	e.u(uint64(len(view)))
	prevAddr := uint64(0)
	for _, v := range view {
		e.u(v.Addr - prevAddr)
		prevAddr = v.Addr
		e.u(v.Val)
	}
}

// Minimum encoded sizes of the count-prefixed entries both layouts
// share. Every count read by a decoder is capped at remaining/minSize
// before any slice is allocated, so the allocation for a stream is
// always bounded by a small constant times the bytes actually present —
// a hostile varint cannot translate into an unbounded make().
const (
	minDataBytes = 2 // addr delta + value
	minSymBytes  = 2 // name length + address
	minSysBytes  = 2 // idx delta + result
	minViewBytes = 2 // addr delta + value
)

// SizeStats quantifies a log against the instruction count it covers.
type SizeStats struct {
	Instructions    uint64
	RawBytes        int
	CompressedBytes int
}

// RawBitsPerInstr is the §5.1 headline metric for the uncompressed log.
func (s SizeStats) RawBitsPerInstr() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.RawBytes) * 8 / float64(s.Instructions)
}

// CompressedBitsPerInstr is the metric after flate compression.
func (s SizeStats) CompressedBitsPerInstr() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.CompressedBytes) * 8 / float64(s.Instructions)
}

// BytesPerBillion extrapolates storage for 10^9 instructions (the paper
// reports ~96 MB/billion raw).
func (s SizeStats) BytesPerBillion() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.CompressedBytes) / float64(s.Instructions) * 1e9
}

// Stats measures log's serialized footprint: RawBytes is the size of the
// container Write emits, CompressedBytes that container deflated as one
// stream (best compression) — the analogue of the paper zipping iDNA
// logs from 0.8 to ~0.3 bits/instruction.
func Stats(log *Log) SizeStats {
	raw := MarshalV2(log)
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, flate.BestCompression)
	if err != nil {
		panic(err) // only on invalid level
	}
	w.Write(raw) // a bytes.Buffer cannot fail
	w.Close()
	return SizeStats{
		Instructions:    log.Instructions(),
		RawBytes:        len(raw),
		CompressedBytes: out.Len(),
	}
}
