package trace

import (
	"bytes"
	"compress/flate"
)

// marshalV1 and compressV1 are a test-only copy of the v1 encoder this
// package no longer ships: the legacy decoder's unit tests and fuzzers
// build their inputs with them.

// marshalV1 serializes log to the raw v1 layout ("RRLOG").
func marshalV1(log *Log) []byte {
	var e encoder
	e.buf.WriteString(rawMagic)
	e.u(formatVersion)
	e.meta(log)
	e.u(uint64(len(log.Threads)))
	for _, t := range log.Threads {
		e.u(uint64(t.TID))
		e.u(t.StartTS)
		e.u(t.EndTS)
		e.u(uint64(t.InitPC))
		for _, r := range t.InitRegs {
			e.u(r)
		}
		e.u(t.Retired)
		e.u(uint64(t.EndReason))
		e.u(t.ExitCode)
		e.fault(t.Fault)

		e.u(uint64(len(t.Loads)))
		prevIdx := uint64(0)
		for _, l := range t.Loads {
			e.u(l.Idx - prevIdx)
			prevIdx = l.Idx
			e.u(l.Addr)
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
			e.buf.WriteByte(byte(s.Kind))
			e.i(s.Aux)
		}

		e.u(uint64(len(t.KeyFrames)))
		prevIdx = 0
		for _, kf := range t.KeyFrames {
			e.u(kf.Idx - prevIdx)
			prevIdx = kf.Idx
			e.u(uint64(kf.PC))
			for _, r := range kf.Regs {
				e.u(r)
			}
			e.view(kf.View)
		}
	}
	return e.buf.Bytes()
}

// compressV1 wraps raw v1 bytes in the v1 container ("RRLZ1" + flate).
func compressV1(raw []byte) []byte {
	var out bytes.Buffer
	out.WriteString(fileMagic)
	w, err := flate.NewWriter(&out, flate.BestCompression)
	if err != nil {
		panic(err)
	}
	w.Write(raw)
	w.Close()
	return out.Bytes()
}
