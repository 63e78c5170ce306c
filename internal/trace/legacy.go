package trace

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"repro/internal/isa"
)

// The v1 container is the format this package wrote before v2: "RRLZ1"
// and one flate stream over a raw log, which is "RRLOG", a version
// varint, the program and run metadata, and then every thread's header
// and streams in sequence (docs/FORMAT.md). Nothing writes it any more;
// the decoder below keeps old recordings readable. It runs on v2's slice
// reader and shares v2's decoders for the parts whose bytes the two
// layouts share: the program and run metadata, the fault record, the
// syscall results and the key-frame views. Offsets in its errors count
// from the end of the "RRLOG" magic.
const (
	rawMagic      = "RRLOG"
	fileMagic     = "RRLZ1"
	formatVersion = 2
)

// Minimum encoded sizes of the v1-only entries (see encode.go for the
// shared ones and the discipline they serve).
const (
	minLoadBytes   = 3 // idx delta + addr + value
	minSeqBytes    = 4 // idx delta + ts delta + kind byte + aux
	minThreadBytes = 12 + isa.NumRegs
	minKFBytes     = 3 + isa.NumRegs // idx delta + pc + register file + view count
)

// decodeV1 decodes a legacy log: a compressed container, or a raw log.
func decodeV1(data []byte) (*Log, error) {
	if string(data[:len(fileMagic)]) == fileMagic {
		var err error
		if data, err = decompressV1(data); err != nil {
			return nil, err
		}
	}
	return unmarshalV1(data)
}

// decompressV1 inflates a v1 container. Failures are *DecodeError: a
// missing container magic, a broken flate stream, or a payload inflating
// past MaxRawLogBytes.
func decompressV1(data []byte) ([]byte, error) {
	if len(data) < len(fileMagic) || string(data[:len(fileMagic)]) != fileMagic {
		return nil, &DecodeError{Section: "container magic", Err: ErrBadMagic}
	}
	r := flate.NewReader(bytes.NewReader(data[len(fileMagic):]))
	defer r.Close()
	raw, err := io.ReadAll(io.LimitReader(r, MaxRawLogBytes+1))
	if err != nil {
		return nil, &DecodeError{Section: "container payload", Err: fmt.Errorf("inflate: %w", err)}
	}
	if len(raw) > MaxRawLogBytes {
		return nil, &DecodeError{Section: "container payload", Err: ErrTooLarge}
	}
	return raw, nil
}

// unmarshalV1 parses a raw v1 log. Failures are typed: a malformed input
// returns a *DecodeError (with offset and section), a well-formed input
// breaking a replay invariant returns a *ValidateError. It never panics
// and never allocates more than a small constant factor of len(raw),
// whatever the bytes say.
func unmarshalV1(raw []byte) (*Log, error) {
	if len(raw) < len(rawMagic) || string(raw[:len(rawMagic)]) != rawMagic {
		return nil, &DecodeError{Section: "magic", Err: ErrBadMagic}
	}
	d := &sdec{buf: raw[len(rawMagic):]}
	d.in("header")
	ver, err := d.u()
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, d.fail(fmt.Errorf("unsupported version %d", ver))
	}
	log := &Log{}
	if err := d.meta(log); err != nil {
		return nil, err
	}
	d.in("threads")
	nThreads, err := d.count(minThreadBytes)
	if err != nil {
		return nil, err
	}
	log.Threads = make([]*ThreadLog, 0, nThreads)
	for i := uint64(0); i < nThreads; i++ {
		t, err := d.threadV1(i)
		if err != nil {
			return nil, err
		}
		log.Threads = append(log.Threads, t)
	}
	if err := log.Validate(); err != nil {
		return nil, err
	}
	return log, nil
}

// threadV1 parses the i-th thread of a v1 log: a header with absolute
// timestamps and a dense register file, then absolute load addresses and
// sequencers that always carry their aux field.
func (d *sdec) threadV1(i uint64) (*ThreadLog, error) {
	d.prefix = fmt.Sprintf("thread %d ", i)
	d.in("header")
	t := &ThreadLog{}
	var v uint64
	var err error
	if v, err = d.u(); err != nil {
		return nil, err
	}
	t.TID = int(v)
	if t.StartTS, err = d.u(); err != nil {
		return nil, err
	}
	if t.EndTS, err = d.u(); err != nil {
		return nil, err
	}
	if v, err = d.u(); err != nil {
		return nil, err
	}
	t.InitPC = int(v)
	for r := range t.InitRegs {
		if t.InitRegs[r], err = d.u(); err != nil {
			return nil, err
		}
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
	nLoads, err := d.count(minLoadBytes)
	if err != nil {
		return nil, err
	}
	idx := uint64(0)
	t.Loads = make([]LoadRec, 0, nLoads)
	for j := uint64(0); j < nLoads; j++ {
		di, err := d.u()
		if err != nil {
			return nil, err
		}
		idx += di
		a, err := d.u()
		if err != nil {
			return nil, err
		}
		val, err := d.u()
		if err != nil {
			return nil, err
		}
		t.Loads = append(t.Loads, LoadRec{Idx: idx, Addr: a, Val: val})
	}

	d.in("sysrets")
	if err = d.sysRets(t); err != nil {
		return nil, err
	}

	d.in("sequencers")
	nSeqs, err := d.count(minSeqBytes)
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
		aux, err := d.i()
		if err != nil {
			return nil, err
		}
		t.Seqs = append(t.Seqs, Sequencer{Idx: idx, TS: ts, Kind: SeqKind(kb), Aux: aux})
	}

	d.in("key frames")
	nKF, err := d.count(minKFBytes)
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
		for r := range kf.Regs {
			if kf.Regs[r], err = d.u(); err != nil {
				return nil, err
			}
		}
		if kf.View, err = d.view(); err != nil {
			return nil, err
		}
		t.KeyFrames = append(t.KeyFrames, kf)
	}
	return t, nil
}
