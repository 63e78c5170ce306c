// Package chaos is the fault-injection side of the pipeline's
// robustness contract. The paper's replay analysis already treats
// imperfect replays as a first-class outcome (Replay-Failure, §3.3);
// this package extends the same posture to the log files themselves: a
// deterministic, seeded corruption injector over serialized replay logs
// plus a scenario runner that asserts the decode contract under every
// corruption —
//
//	never panic, never allocate unbounded, always return a typed error
//	or a valid (degraded-but-labeled) log.
//
// The injector corrupts a v2 container the ways a real log store can
// hand it to the offline analysis: byte-level damage (bit flips,
// truncation, varint-length inflation, field mutation, bad magic, a
// garbage tail), structured edits that re-encode a well-formed log
// breaking a replay invariant (duplicated and dropped sequencers), and
// damage aimed at the segmented layout itself (index, torn segments,
// varint overruns behind repaired checksums). Everything is
// deterministic in (seed, trial index), so a failing trial reproduces
// from its two integers.
package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/trace"
)

// Kind is one corruption strategy.
type Kind int

const (
	// KindBitFlip flips a single random bit of the container.
	KindBitFlip Kind = iota
	// KindTruncate cuts the container at a random point.
	KindTruncate
	// KindInflateLength splices a maximal varint over a random byte —
	// wherever that byte was a length or count prefix, the decoder sees
	// an absurd claim it must reject before allocating.
	KindInflateLength
	// KindMutateField overwrites a short random span with random bytes.
	KindMutateField
	// KindDupSequencer re-encodes the log with one sequencer entry
	// duplicated (a structured corruption: bytes stay well-formed, the
	// log breaks a replay invariant instead).
	KindDupSequencer
	// KindDropSequencer re-encodes the log with one sequencer removed.
	KindDropSequencer
	// KindBadMagic corrupts the container's magic string.
	KindBadMagic
	// KindGarbageTail replaces the tail of the container, from a random
	// point to the end, with random garbage — breaking a run of segments.
	KindGarbageTail
	// KindIndexCorrupt flips a byte inside the container's segment
	// index, so the index checksum or the canonical-layout checks must
	// reject the log before any segment is touched.
	KindIndexCorrupt
	// KindTornSegment garbages the container from a random point inside
	// one segment's payload through the end — the on-disk shape of a
	// write torn mid-segment.
	KindTornSegment
	// KindVarintOverrun overwrites a span of one segment's payload with
	// maximal varint bytes and repairs the checksums, so the overrun
	// reaches the varint parser itself rather than dying at the CRC gate.
	KindVarintOverrun

	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindBitFlip:
		return "bit-flip"
	case KindTruncate:
		return "truncate"
	case KindInflateLength:
		return "inflate-length"
	case KindMutateField:
		return "mutate-field"
	case KindDupSequencer:
		return "dup-sequencer"
	case KindDropSequencer:
		return "drop-sequencer"
	case KindBadMagic:
		return "bad-magic"
	case KindGarbageTail:
		return "garbage-tail"
	case KindIndexCorrupt:
		return "index-corrupt"
	case KindTornSegment:
		return "torn-segment"
	case KindVarintOverrun:
		return "varint-overrun"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Kinds lists every corruption kind, in injection rotation order.
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Injector produces deterministic corruptions of a log: equal (seed,
// trial) pairs always yield identical bytes.
type Injector struct {
	seed int64
}

// NewInjector returns an injector whose output is a pure function of
// seed and the trial index.
func NewInjector(seed int64) *Injector { return &Injector{seed: seed} }

// rng derives the per-trial random stream.
func (in *Injector) rng(trial int) *rand.Rand {
	return rand.New(rand.NewSource(in.seed*1_000_003 + int64(trial)))
}

// CorruptFile returns the trial-th corruption of a log container,
// cycling through every Kind so any N >= len(Kinds()) trials cover the
// full taxonomy. The result is what a corrupt .rlog file on disk would
// look like.
func (in *Injector) CorruptFile(container []byte, trial int) ([]byte, Kind) {
	kind := Kind(trial % int(numKinds))
	return in.CorruptFileKind(container, kind, trial), kind
}

// CorruptFileKind applies one specific corruption kind to a v2 log
// container, deterministically in (seed, trial). Bytes that are not a
// structurally valid v2 container — a legacy v1 file, say — take the
// container-level kinds only: every other kind garbages their tail.
func (in *Injector) CorruptFileKind(container []byte, kind Kind, trial int) []byte {
	rng := in.rng(trial)
	switch kind {
	case KindBadMagic, KindGarbageTail:
		return corruptContainer(clone(container), kind, rng)
	}
	return corruptV2(clone(container), kind, rng)
}

// corruptV2 applies kind to a v2 container in place. Byte-level kinds
// hit the container bytes (the CRC gates are part of the contract under
// test); the structured kinds re-encode a mutated log in the same
// format; the v2-specific kinds target the layout's own structures —
// index, packed segments, varint streams.
func corruptV2(data []byte, kind Kind, rng *rand.Rand) []byte {
	spans, ok := trace.V2SegmentSpans(data)
	if !ok || len(spans) == 0 {
		return corruptContainer(data, KindGarbageTail, rng)
	}
	switch kind {
	case KindBitFlip, KindTruncate, KindInflateLength, KindMutateField:
		// Byte corruptions apply to the container as a whole; the
		// decoder must answer with header, index, or segment errors.
		return corruptBytes(data, kind, rng)
	case KindDupSequencer, KindDropSequencer:
		log, _, err := trace.Decode(data, trace.DecodeOptions{})
		if err != nil || len(log.Threads) == 0 {
			return corruptBytes(data, KindBitFlip, rng)
		}
		t := log.Threads[rng.Intn(len(log.Threads))]
		if len(t.Seqs) == 0 {
			return corruptBytes(data, KindBitFlip, rng)
		}
		if kind == KindDupSequencer {
			t.Seqs = dupSeq(t.Seqs, rng.Intn(len(t.Seqs)))
		} else {
			t.Seqs = dropSeq(t.Seqs, rng.Intn(len(t.Seqs)))
		}
		return trace.MarshalV2(log)
	case KindIndexCorrupt:
		// [5, payloadStart) covers version, flags, count, index CRC, and
		// the index entries — everything the header/index parser guards.
		idxEnd := spans[0][0]
		i := 5 + rng.Intn(idxEnd-5)
		data[i] ^= 1 << uint(rng.Intn(8))
		return data
	case KindTornSegment:
		s := spans[rng.Intn(len(spans))]
		start := s[0]
		if s[1] > s[0] {
			start += rng.Intn(s[1] - s[0])
		}
		for i := start; i < len(data); i++ {
			data[i] = byte(rng.Intn(256))
		}
		return data
	case KindVarintOverrun:
		seg := rng.Intn(len(spans))
		trace.RewriteV2Segment(data, seg, func(payload []byte) {
			if len(payload) == 0 {
				return
			}
			// A maximal 10-byte uvarint (2^63) overwrites a random span,
			// truncated at the payload end so the layout stays intact.
			huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
			pos := rng.Intn(len(payload))
			copy(payload[pos:], huge)
		})
		return data
	}
	return corruptBytes(data, KindBitFlip, rng)
}

// corruptBytes applies one of the byte-level kinds (bit flip, truncate,
// inflate length, mutate field) to data, drawing any needed randomness
// from rng. The input slice is not modified.
func corruptBytes(data []byte, kind Kind, rng *rand.Rand) []byte {
	out := clone(data)
	switch kind {
	case KindBitFlip:
		if len(out) > 0 {
			i := rng.Intn(len(out))
			out[i] ^= 1 << uint(rng.Intn(8))
		}
	case KindTruncate:
		if len(out) > 1 {
			out = out[:rng.Intn(len(out)-1)+1]
		}
	case KindInflateLength:
		// A maximal 10-byte uvarint (2^63) spliced over one byte.
		if len(out) > 6 {
			pos := 6 + rng.Intn(len(out)-6) // keep magic + version intact
			huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
			spliced := make([]byte, 0, len(out)+len(huge))
			spliced = append(spliced, out[:pos]...)
			spliced = append(spliced, huge...)
			spliced = append(spliced, out[pos+1:]...)
			out = spliced
		}
	case KindMutateField:
		if len(out) > 0 {
			span := 1 + rng.Intn(8)
			pos := rng.Intn(len(out))
			for i := pos; i < len(out) && i < pos+span; i++ {
				out[i] = byte(rng.Intn(256))
			}
		}
	}
	return out
}

// dupSeq and dropSeq are the structured sequencer edits.
func dupSeq(seqs []trace.Sequencer, i int) []trace.Sequencer {
	dup := make([]trace.Sequencer, 0, len(seqs)+1)
	dup = append(dup, seqs[:i+1]...)
	dup = append(dup, seqs[i:]...)
	return dup
}

func dropSeq(seqs []trace.Sequencer, i int) []trace.Sequencer {
	drop := make([]trace.Sequencer, 0, len(seqs)-1)
	drop = append(drop, seqs[:i]...)
	drop = append(drop, seqs[i+1:]...)
	return drop
}

// corruptContainer applies the container-level kinds in place.
func corruptContainer(data []byte, kind Kind, rng *rand.Rand) []byte {
	if len(data) == 0 {
		return []byte{0xff}
	}
	switch kind {
	case KindBadMagic:
		data[rng.Intn(min(5, len(data)))] ^= 0xff
	default: // KindGarbageTail
		start := rng.Intn(len(data))
		for i := start; i < len(data); i++ {
			data[i] = byte(rng.Intn(256))
		}
	}
	return data
}

// KnownBad returns, for every corruption kind, container bytes that are
// guaranteed to fail the full file decode path with thread salvage on —
// the exact path analyze-dir and serve run — so every corpus entry
// quarantines the whole log, never just a thread. Kinds whose random
// draw happens to produce a decodable input (a bit flip in a don't-care
// byte, a torn v2 segment salvage confines to one thread) are retried
// on successive trials; a kind that cannot be made to fail after
// maxTries is skipped. This is the generator behind testdata/corrupt.
func KnownBad(container []byte, seed int64) map[Kind][]byte {
	const maxTries = 256
	in := NewInjector(seed)
	out := make(map[Kind][]byte, numKinds)
	for _, kind := range Kinds() {
		for try := 0; try < maxTries; try++ {
			bad := in.CorruptFileKind(container, kind, int(kind)+int(numKinds)*try)
			if decodeFails(bad) {
				out[kind] = bad
				break
			}
		}
	}
	return out
}

// decodeFails reports whether the file decode path — thread salvage
// included, as analyze-dir and serve run it — rejects data.
func decodeFails(data []byte) bool {
	_, _, err := trace.Decode(data, trace.DecodeOptions{Salvage: true})
	return err != nil
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
