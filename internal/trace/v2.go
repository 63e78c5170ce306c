package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/isa"
	"repro/internal/obs"
)

// The v2 container is the one log format this package writes. Instead of
// one flate stream over the whole log (the legacy v1 container, still
// read by legacy.go), a fixed self-describing header is followed by a
// segment index and then independently decodable segments — one meta
// segment (program + run metadata) and one segment per thread. Segments
// are stored uncompressed, so decode is a zero-copy walk over the input
// buffer, and every segment carries a CRC-32C so corruption is localized
// to the segment it hit. The index is first, so a reader knows every
// segment's bounds and checksum before it decodes any of them.
//
// Container layout (all fixed-width fields little-endian):
//
//	[0:5]    magic "RRSG2"
//	[5]      version (1)
//	[6]      flags (0; a container with any flag set is rejected)
//	[7]      reserved (0)
//	[8:12]   segment count
//	[12:16]  CRC-32C of the index bytes
//	[16:..]  index: 40 bytes per segment
//	[..:EOF] segment payloads, packed in index order
//
// Index entry layout:
//
//	[0]      kind (0 meta, 1 thread)
//	[1:4]    reserved (0)
//	[4:8]    thread id (0 for the meta segment)
//	[8:16]   payload offset, relative to the end of the index
//	[16:24]  encoded payload length
//	[24:32]  raw payload length; always equals the encoded length
//	[32:36]  CRC-32C of the encoded payload
//	[36:40]  reserved (0)
//
// Segment payloads use the same varint/delta discipline as v1, with two
// encodings v1 lacks: register files are stored sparse (only nonzero
// registers), and load addresses are signed deltas from the previous load
// instead of absolute values. Decoding reads varints directly off the
// input slice.
const (
	fileMagicV2     = "RRSG2"
	v2Version       = 1
	v2HeaderLen     = 16
	v2IndexEntryLen = 40

	segKindMeta   = 0
	segKindThread = 1
)

// crcTable is the CRC-32C (Castagnoli) table segment checksums use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	errVarintOverflow = errors.New("varint overflows 64 bits")
	// errChecksum means a segment's payload does not match the CRC its
	// index entry recorded — the bytes were damaged after encoding.
	errChecksum = errors.New("segment checksum mismatch")
)

// Minimum encoded sizes of the v2-only stream entries (see the shared
// ones in encode.go): no count translates into an allocation the
// remaining bytes cannot justify.
const (
	minLoadV2 = 3 // idx delta + addr delta + value
	minSeqV2  = 3 // idx delta + ts delta + kind byte
	minKFV2   = 4 // idx delta + pc + register count + view count
)

// DecodeOptions tunes Decode's v2 segment decoder (the legacy v1
// decoder ignores every option). The zero value is the strict decode.
type DecodeOptions struct {
	// Salvage confines a log's corruption to the thread segments it
	// hits: corrupt segments are dropped and reported as ThreadFaults
	// while the healthy remainder decodes, provided the header, index,
	// and meta segment are intact and the surviving log still validates.
	// A legacy v1 log has no segment boundaries to confine it. Off means
	// strict: any segment fault fails the log.
	Salvage bool
	// Metrics receives the decode.v2.* counters (nil is off, as
	// everywhere in obs).
	Metrics *obs.Registry
}

// ThreadFault reports one thread segment dropped by salvage-mode
// decode: which segment, which thread the index attributed it to, and the
// typed error that condemned it.
type ThreadFault struct {
	Segment int
	TID     int
	Err     error
}

func (f ThreadFault) String() string {
	return fmt.Sprintf("segment %d (thread %d): %v", f.Segment, f.TID, f.Err)
}

// segEntry is one parsed index entry.
type segEntry struct {
	kind   byte
	tid    uint32
	off    uint64
	encLen uint64
	crc    uint32
}

// MarshalV2 serializes log into the v2 container: the bytes Write emits
// and LogDigest hashes.
func MarshalV2(log *Log) []byte {
	payloads := make([][]byte, 0, 1+len(log.Threads))
	payloads = append(payloads, encodeMetaV2(log))
	total := len(payloads[0])
	for _, t := range log.Threads {
		payloads = append(payloads, encodeThreadV2(t))
		total += len(payloads[len(payloads)-1])
	}

	idxLen := len(payloads) * v2IndexEntryLen
	out := make([]byte, v2HeaderLen+idxLen, v2HeaderLen+idxLen+total)
	copy(out, fileMagicV2)
	out[5] = v2Version
	binary.LittleEndian.PutUint32(out[8:12], uint32(len(payloads)))
	off := uint64(0)
	for i, p := range payloads {
		b := out[v2HeaderLen+i*v2IndexEntryLen:]
		if i > 0 {
			b[0] = segKindThread
			binary.LittleEndian.PutUint32(b[4:8], uint32(log.Threads[i-1].TID))
		}
		binary.LittleEndian.PutUint64(b[8:16], off)
		binary.LittleEndian.PutUint64(b[16:24], uint64(len(p))) // encoded length
		binary.LittleEndian.PutUint64(b[24:32], uint64(len(p))) // raw length, the same
		binary.LittleEndian.PutUint32(b[32:36], crc32.Checksum(p, crcTable))
		off += uint64(len(p))
	}
	binary.LittleEndian.PutUint32(out[12:16], crc32.Checksum(out[v2HeaderLen:v2HeaderLen+idxLen], crcTable))
	for _, p := range payloads {
		out = append(out, p...)
	}
	return out
}

func encodeSparseRegs(e *encoder, regs *[isa.NumRegs]uint64) {
	n := 0
	for _, r := range regs {
		if r != 0 {
			n++
		}
	}
	e.u(uint64(n))
	for i, r := range regs {
		if r != 0 {
			e.u(uint64(i))
			e.u(r)
		}
	}
}

// encodeMetaV2 serializes the program and run metadata — everything in
// the log except the threads — and the thread count.
func encodeMetaV2(log *Log) []byte {
	var e encoder
	e.meta(log)
	e.u(uint64(len(log.Threads)))
	return append([]byte(nil), e.buf.Bytes()...)
}

// encodeThreadV2 serializes one thread's log as a self-contained segment
// payload.
func encodeThreadV2(t *ThreadLog) []byte {
	var e encoder
	e.u(uint64(t.TID))
	e.u(t.StartTS)
	e.u(t.EndTS - t.StartTS) // wrapping delta: lossless for any pair
	e.u(uint64(t.InitPC))
	encodeSparseRegs(&e, &t.InitRegs)
	e.u(t.Retired)
	e.u(uint64(t.EndReason))
	e.u(t.ExitCode)
	e.fault(t.Fault)

	e.u(uint64(len(t.Loads)))
	prevIdx, prevAddr := uint64(0), uint64(0)
	for _, l := range t.Loads {
		e.u(l.Idx - prevIdx)
		prevIdx = l.Idx
		e.i(int64(l.Addr - prevAddr)) // signed wrapping delta
		prevAddr = l.Addr
		e.u(l.Val)
	}

	e.sysRets(t.SysRets)

	e.u(uint64(len(t.Seqs)))
	prevIdx, prevTS := uint64(0), uint64(0)
	for _, s := range t.Seqs {
		e.u(s.Idx - prevIdx)
		prevIdx = s.Idx
		e.u(s.TS - prevTS)
		prevTS = s.TS
		kb := byte(s.Kind) & 0x7f
		if s.Aux != -1 {
			kb |= 0x80
		}
		e.buf.WriteByte(kb)
		if s.Aux != -1 {
			e.i(s.Aux)
		}
	}

	e.u(uint64(len(t.KeyFrames)))
	prevIdx = 0
	for _, kf := range t.KeyFrames {
		e.u(kf.Idx - prevIdx)
		prevIdx = kf.Idx
		e.u(uint64(kf.PC))
		regs := kf.Regs
		encodeSparseRegs(&e, &regs)
		e.view(kf.View)
	}
	return append([]byte(nil), e.buf.Bytes()...)
}

// sdec decodes varints directly off a byte slice, with the typed-error
// and count-cap discipline every decoder in this package keeps. It reads
// v2 segments and, through legacy.go, v1 payloads. base is the slice's
// offset within its container, so reported offsets are
// container-absolute for v2 segments. An error's section is prefix (the
// segment or thread being read) followed by section (the part of it),
// joined only when a decode fails.
type sdec struct {
	buf     []byte
	off     int
	base    int
	prefix  string
	section string
}

func (d *sdec) in(section string) { d.section = section }

func (d *sdec) rem() int { return len(d.buf) - d.off }

func (d *sdec) fail(err error) error {
	return &DecodeError{Offset: d.base + d.off, Section: d.prefix + d.section, Err: err}
}

func (d *sdec) u() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n == 0 {
		return 0, d.fail(ErrTruncated)
	}
	if n < 0 {
		return 0, d.fail(errVarintOverflow)
	}
	d.off += n
	return v, nil
}

func (d *sdec) i() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n == 0 {
		return 0, d.fail(ErrTruncated)
	}
	if n < 0 {
		return 0, d.fail(errVarintOverflow)
	}
	d.off += n
	return v, nil
}

func (d *sdec) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, d.fail(ErrTruncated)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// count reads a count prefix for entries of at least minSize encoded
// bytes each and rejects counts the remaining input cannot hold.
func (d *sdec) count(minSize int) (uint64, error) {
	n, err := d.u()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.rem())/uint64(minSize) {
		return 0, d.fail(fmt.Errorf("%w: %d entries of >= %d bytes with %d bytes left",
			ErrLengthOverflow, n, minSize, d.rem()))
	}
	return n, nil
}

// take returns the next n bytes as a subslice of the input (no copy).
func (d *sdec) take(n uint64) ([]byte, error) {
	if n > uint64(d.rem()) {
		return nil, d.fail(fmt.Errorf("%w: %d bytes announced, %d left", ErrLengthOverflow, n, d.rem()))
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *sdec) byteSlice() ([]byte, error) {
	n, err := d.u()
	if err != nil {
		return nil, err
	}
	return d.take(n)
}

func (d *sdec) str() (string, error) {
	b, err := d.byteSlice()
	return string(b), err
}

func (d *sdec) sparseRegs(regs *[isa.NumRegs]uint64) error {
	n, err := d.u()
	if err != nil {
		return err
	}
	if n > isa.NumRegs {
		return d.fail(fmt.Errorf("%w: %d register entries, machine has %d", ErrLengthOverflow, n, isa.NumRegs))
	}
	last := -1
	for i := uint64(0); i < n; i++ {
		ri, err := d.u()
		if err != nil {
			return err
		}
		if ri >= isa.NumRegs {
			return d.fail(fmt.Errorf("register index %d out of range", ri))
		}
		if int(ri) <= last {
			return d.fail(fmt.Errorf("register indices not ascending"))
		}
		last = int(ri)
		if regs[ri], err = d.u(); err != nil {
			return err
		}
	}
	return nil
}

// done rejects trailing bytes: a segment's payload must be consumed
// exactly, so damage that shifts the stream cannot hide in slack.
func (d *sdec) done() error {
	if d.off != len(d.buf) {
		return d.fail(fmt.Errorf("%d trailing bytes after segment payload", d.rem()))
	}
	return nil
}

// meta parses the program and run metadata into log, the block v1 and v2
// lay out alike.
func (d *sdec) meta(log *Log) error {
	p := isa.NewProgram("")
	d.in("program")
	var err error
	if p.Name, err = d.str(); err != nil {
		return err
	}
	codeBytes, err := d.byteSlice()
	if err != nil {
		return err
	}
	if p.Code, err = isa.DecodeCode(codeBytes); err != nil {
		return d.fail(err)
	}
	entry, err := d.u()
	if err != nil {
		return err
	}
	p.Entry = int(entry)
	d.in("program data")
	nData, err := d.count(minDataBytes)
	if err != nil {
		return err
	}
	addr := uint64(0)
	for i := uint64(0); i < nData; i++ {
		da, err := d.u()
		if err != nil {
			return err
		}
		addr += da
		if p.Data[addr], err = d.u(); err != nil {
			return err
		}
	}
	d.in("program symbols")
	nSyms, err := d.count(minSymBytes)
	if err != nil {
		return err
	}
	for i := uint64(0); i < nSyms; i++ {
		name, err := d.str()
		if err != nil {
			return err
		}
		at, err := d.u()
		if err != nil {
			return err
		}
		p.Symbols[name] = int(at)
	}
	log.Prog = p

	d.in("run metadata")
	if log.Seed, err = d.i(); err != nil {
		return err
	}
	if log.FinalClock, err = d.u(); err != nil {
		return err
	}
	if log.TotalSteps, err = d.u(); err != nil {
		return err
	}
	dl, err := d.u()
	if err != nil {
		return err
	}
	log.Deadlocked = dl != 0
	return nil
}

// fault parses a thread's optional fault record.
func (d *sdec) fault(t *ThreadLog) error {
	v, err := d.u()
	if err != nil || v == 0 {
		return err
	}
	f := &FaultRec{}
	if v, err = d.u(); err != nil {
		return err
	}
	f.Kind = int(v)
	if v, err = d.u(); err != nil {
		return err
	}
	f.PC = int(v)
	if f.Addr, err = d.u(); err != nil {
		return err
	}
	t.Fault = f
	return nil
}

// sysRets parses a thread's syscall-result stream.
func (d *sdec) sysRets(t *ThreadLog) error {
	nSys, err := d.count(minSysBytes)
	if err != nil {
		return err
	}
	idx := uint64(0)
	t.SysRets = make([]SysRec, 0, nSys)
	for j := uint64(0); j < nSys; j++ {
		di, err := d.u()
		if err != nil {
			return err
		}
		idx += di
		res, err := d.u()
		if err != nil {
			return err
		}
		t.SysRets = append(t.SysRets, SysRec{Idx: idx, Res: res})
	}
	return nil
}

// view parses a key frame's memory view.
func (d *sdec) view() ([]LoadRec, error) {
	nView, err := d.count(minViewBytes)
	if err != nil {
		return nil, err
	}
	addr := uint64(0)
	view := make([]LoadRec, 0, nView)
	for k := uint64(0); k < nView; k++ {
		da, err := d.u()
		if err != nil {
			return nil, err
		}
		addr += da
		val, err := d.u()
		if err != nil {
			return nil, err
		}
		view = append(view, LoadRec{Addr: addr, Val: val})
	}
	return view, nil
}

// decodeMetaV2 parses the meta segment into a log skeleton (no threads)
// and the thread count the meta announced.
func decodeMetaV2(payload []byte, base int) (*Log, uint64, error) {
	d := sdec{buf: payload, base: base, prefix: "segment 0 (meta) "}
	log := &Log{}
	if err := d.meta(log); err != nil {
		return nil, 0, err
	}
	nThreads, err := d.u()
	if err != nil {
		return nil, 0, err
	}
	if err := d.done(); err != nil {
		return nil, 0, err
	}
	return log, nThreads, nil
}

// decodeThreadV2 parses one thread segment payload. seg and wantTID come
// from the index; the payload's own thread id must agree.
func decodeThreadV2(payload []byte, base, seg int, wantTID uint32) (*ThreadLog, error) {
	d := sdec{buf: payload, base: base, prefix: fmt.Sprintf("segment %d (thread %d) ", seg, wantTID)}
	d.in("header")
	t := &ThreadLog{}
	var v uint64
	var err error
	if v, err = d.u(); err != nil {
		return nil, err
	}
	t.TID = int(v)
	if uint64(wantTID) != v {
		return nil, d.fail(fmt.Errorf("thread id %d disagrees with index entry (%d)", v, wantTID))
	}
	if t.StartTS, err = d.u(); err != nil {
		return nil, err
	}
	if v, err = d.u(); err != nil {
		return nil, err
	}
	t.EndTS = t.StartTS + v
	if v, err = d.u(); err != nil {
		return nil, err
	}
	t.InitPC = int(v)
	if err = d.sparseRegs(&t.InitRegs); err != nil {
		return nil, err
	}
	if t.Retired, err = d.u(); err != nil {
		return nil, err
	}
	if v, err = d.u(); err != nil {
		return nil, err
	}
	t.EndReason = EndReason(v)
	if t.ExitCode, err = d.u(); err != nil {
		return nil, err
	}
	if err = d.fault(t); err != nil {
		return nil, err
	}

	d.in("loads")
	nLoads, err := d.count(minLoadV2)
	if err != nil {
		return nil, err
	}
	idx, addr := uint64(0), uint64(0)
	t.Loads = make([]LoadRec, 0, nLoads)
	for j := uint64(0); j < nLoads; j++ {
		di, err := d.u()
		if err != nil {
			return nil, err
		}
		idx += di
		da, err := d.i()
		if err != nil {
			return nil, err
		}
		addr += uint64(da)
		val, err := d.u()
		if err != nil {
			return nil, err
		}
		t.Loads = append(t.Loads, LoadRec{Idx: idx, Addr: addr, Val: val})
	}

	d.in("sysrets")
	if err = d.sysRets(t); err != nil {
		return nil, err
	}

	d.in("sequencers")
	nSeqs, err := d.count(minSeqV2)
	if err != nil {
		return nil, err
	}
	idx = 0
	ts := uint64(0)
	t.Seqs = make([]Sequencer, 0, nSeqs)
	for j := uint64(0); j < nSeqs; j++ {
		di, err := d.u()
		if err != nil {
			return nil, err
		}
		idx += di
		dt, err := d.u()
		if err != nil {
			return nil, err
		}
		ts += dt
		kb, err := d.byte()
		if err != nil {
			return nil, err
		}
		aux := int64(-1)
		if kb&0x80 != 0 {
			if aux, err = d.i(); err != nil {
				return nil, err
			}
		}
		t.Seqs = append(t.Seqs, Sequencer{Idx: idx, TS: ts, Kind: SeqKind(kb & 0x7f), Aux: aux})
	}

	d.in("key frames")
	nKF, err := d.count(minKFV2)
	if err != nil {
		return nil, err
	}
	idx = 0
	if nKF > 0 {
		t.KeyFrames = make([]KeyFrame, 0, nKF)
	}
	for j := uint64(0); j < nKF; j++ {
		var kf KeyFrame
		di, err := d.u()
		if err != nil {
			return nil, err
		}
		idx += di
		kf.Idx = idx
		pc, err := d.u()
		if err != nil {
			return nil, err
		}
		kf.PC = int(pc)
		if err = d.sparseRegs(&kf.Regs); err != nil {
			return nil, err
		}
		if kf.View, err = d.view(); err != nil {
			return nil, err
		}
		t.KeyFrames = append(t.KeyFrames, kf)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return t, nil
}

// v2Index is the parsed header + index of a v2 container.
type v2Index struct {
	entries   []segEntry
	areaStart int
}

func v2Fail(off int, section string, err error) error {
	return &DecodeError{Offset: off, Section: section, Err: err}
}

// parseV2Index validates the fixed header and the segment index of a
// container. It enforces the canonical packed layout — segment 0 is the
// meta segment, offsets are contiguous in index order, each raw length
// equals its encoded length, and the last segment ends exactly at the
// end of the container — so overlapping or out-of-order index entries
// are rejected outright.
func parseV2Index(data []byte) (*v2Index, error) {
	total := uint64(len(data))
	if len(data) < len(fileMagicV2) || string(data[:len(fileMagicV2)]) != fileMagicV2 {
		return nil, v2Fail(0, "v2 magic", ErrBadMagic)
	}
	if len(data) < v2HeaderLen {
		return nil, v2Fail(len(data), "v2 header", ErrTruncated)
	}
	if data[5] != v2Version {
		return nil, v2Fail(5, "v2 header", fmt.Errorf("unsupported version %d", data[5]))
	}
	if data[6] != 0 {
		return nil, v2Fail(6, "v2 header", fmt.Errorf("unknown flags %#x", data[6]))
	}
	nSegs := binary.LittleEndian.Uint32(data[8:12])
	if nSegs == 0 {
		return nil, v2Fail(8, "v2 header", fmt.Errorf("container has no segments"))
	}
	areaStart := uint64(v2HeaderLen) + uint64(nSegs)*v2IndexEntryLen
	if areaStart > total {
		return nil, v2Fail(8, "v2 header", fmt.Errorf("%w: %d index entries with %d bytes total",
			ErrLengthOverflow, nSegs, total))
	}
	idxBytes := data[v2HeaderLen:areaStart]
	if crc32.Checksum(idxBytes, crcTable) != binary.LittleEndian.Uint32(data[12:16]) {
		return nil, v2Fail(12, "v2 index", errChecksum)
	}

	entries := make([]segEntry, nSegs)
	running := uint64(0)
	for i := range entries {
		b := idxBytes[i*v2IndexEntryLen:]
		e := segEntry{
			kind:   b[0],
			tid:    binary.LittleEndian.Uint32(b[4:8]),
			off:    binary.LittleEndian.Uint64(b[8:16]),
			encLen: binary.LittleEndian.Uint64(b[16:24]),
			crc:    binary.LittleEndian.Uint32(b[32:36]),
		}
		rawLen := binary.LittleEndian.Uint64(b[24:32])
		entryOff := v2HeaderLen + i*v2IndexEntryLen
		if i == 0 && e.kind != segKindMeta {
			return nil, v2Fail(entryOff, "v2 index", fmt.Errorf("segment 0 is kind %d, want meta", e.kind))
		}
		if i > 0 && e.kind != segKindThread {
			return nil, v2Fail(entryOff, "v2 index", fmt.Errorf("segment %d is kind %d, want thread", i, e.kind))
		}
		if e.off != running {
			return nil, v2Fail(entryOff, "v2 index", fmt.Errorf("segment %d at offset %d, want packed at %d", i, e.off, running))
		}
		if rawLen > MaxRawLogBytes {
			return nil, v2Fail(entryOff, "v2 index", ErrTooLarge)
		}
		if rawLen != e.encLen {
			return nil, v2Fail(entryOff, "v2 index", fmt.Errorf("segment %d raw length %d != encoded %d",
				i, rawLen, e.encLen))
		}
		// Checked before accumulating so a huge encLen cannot wrap running
		// past the `> total` guard; running <= total holds on entry, so the
		// subtraction is safe.
		if e.encLen > total-running {
			return nil, v2Fail(entryOff, "v2 index", ErrTruncated)
		}
		running += e.encLen
		if running > MaxRawLogBytes {
			return nil, v2Fail(entryOff, "v2 index", ErrTooLarge)
		}
		entries[i] = e
	}
	if running+areaStart != total {
		return nil, v2Fail(int(areaStart), "v2 index",
			fmt.Errorf("segments cover %d bytes, container has %d after index", running, total-areaStart))
	}
	return &v2Index{entries: entries, areaStart: int(areaStart)}, nil
}

// decodeV2 parses a v2 container. In strict mode any segment fault
// fails the whole log with a typed error; with opts.Salvage the fault is
// confined to its thread where structurally safe (see DecodeOptions).
func decodeV2(data []byte, opts DecodeOptions) (*Log, []ThreadFault, error) {
	reg := opts.Metrics
	reject := func(err error) (*Log, []ThreadFault, error) {
		reg.Counter("decode.v2.rejected").Inc()
		return nil, nil, err
	}
	idx, err := parseV2Index(data)
	if err != nil {
		return reject(err)
	}
	meta, metaBase, err := segmentPayload(data, idx, 0, reg)
	if err != nil {
		return reject(err)
	}
	log, nThreads, err := decodeMetaV2(meta, metaBase)
	if err != nil {
		return reject(err)
	}
	n := len(idx.entries) - 1
	if nThreads != uint64(n) {
		return reject(&DecodeError{Offset: metaBase, Section: "segment 0 (meta) run metadata",
			Err: fmt.Errorf("meta announces %d threads, index has %d thread segments", nThreads, n)})
	}

	var faults []ThreadFault
	log.Threads = make([]*ThreadLog, 0, n)
	for i := 1; i <= n; i++ {
		tid := idx.entries[i].tid
		payload, base, err := segmentPayload(data, idx, i, reg)
		var t *ThreadLog
		if err == nil {
			t, err = decodeThreadV2(payload, base, i, tid)
		}
		if err != nil {
			if !opts.Salvage {
				return reject(err)
			}
			faults = append(faults, ThreadFault{Segment: i, TID: int(tid), Err: err})
			continue
		}
		log.Threads = append(log.Threads, t)
	}
	if len(faults) == n && n > 0 {
		// Nothing survived: the corruption is not confined, fail the log.
		return reject(faults[0].Err)
	}
	if err := log.Validate(); err != nil {
		// A surviving thread breaks a replay invariant: the damage was
		// not confined to the dropped segments, so the log is condemned.
		return reject(err)
	}
	reg.Counter("decode.v2.logs").Inc()
	reg.Counter("decode.v2.segments").Add(uint64(len(idx.entries)))
	reg.Counter("decode.v2.quarantined_threads").Add(uint64(len(faults)))
	for _, f := range faults {
		log.DroppedThreads = append(log.DroppedThreads, f.TID)
	}
	return log, faults, nil
}

// segmentPayload checksums one segment's payload and returns it as a
// subslice of data, with its container offset for error reporting.
func segmentPayload(data []byte, idx *v2Index, i int, reg *obs.Registry) ([]byte, int, error) {
	e := idx.entries[i]
	off := idx.areaStart + int(e.off)
	payload := data[off : off+int(e.encLen)]
	if crc32.Checksum(payload, crcTable) != e.crc {
		reg.Counter("decode.v2.crc_errors").Inc()
		return nil, 0, &DecodeError{Offset: off, Section: fmt.Sprintf("segment %d", i), Err: errChecksum}
	}
	return payload, off, nil
}

// V2SegmentSpans reports the absolute [start, end) byte range of every
// segment payload in a structurally valid v2 container (segment 0 is
// the meta segment). ok is false when data does not parse as v2.
// Fault-injection support (internal/chaos): layout knowledge stays in
// this package instead of leaking format constants to the injector.
func V2SegmentSpans(data []byte) (spans [][2]int, ok bool) {
	idx, err := parseV2Index(data)
	if err != nil {
		return nil, false
	}
	spans = make([][2]int, len(idx.entries))
	for i, e := range idx.entries {
		start := idx.areaStart + int(e.off)
		spans[i] = [2]int{start, start + int(e.encLen)}
	}
	return spans, true
}

// RewriteV2Segment applies mutate to segment seg's encoded payload in
// place, then recomputes the segment and index checksums so the
// mutation reaches the segment decoder instead of dying at the CRC
// gate. It reports false when data is not a structurally valid v2
// container or seg is out of range. Fault-injection support: production
// code never rewrites containers.
func RewriteV2Segment(data []byte, seg int, mutate func(payload []byte)) bool {
	idx, err := parseV2Index(data)
	if err != nil || seg < 0 || seg >= len(idx.entries) {
		return false
	}
	e := idx.entries[seg]
	start := idx.areaStart + int(e.off)
	payload := data[start : start+int(e.encLen)]
	mutate(payload)
	entry := data[v2HeaderLen+seg*v2IndexEntryLen:]
	binary.LittleEndian.PutUint32(entry[32:36], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(data[12:16],
		crc32.Checksum(data[v2HeaderLen:idx.areaStart], crcTable))
	return true
}
