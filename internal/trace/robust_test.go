package trace

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// allocDelta measures the bytes allocated while running f, single
// threaded. Tests in this package run sequentially, so the delta is a
// faithful upper bound on what f itself allocated.
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestInflatedLengthRejectedBounded is the regression test for the
// hostile-varint hole: a log whose name length claims 2^62 bytes must be
// rejected with ErrLengthOverflow before any allocation proportional to
// the claim happens.
func TestInflatedLengthRejectedBounded(t *testing.T) {
	var e encoder
	e.buf.WriteString(rawMagic)
	e.u(formatVersion)
	e.u(1 << 62) // program name announces 4 EiB
	e.buf.WriteString("tiny")
	raw := e.buf.Bytes()

	var err error
	delta := allocDelta(func() { _, err = unmarshalV1(raw) })
	if err == nil {
		t.Fatal("inflated length accepted")
	}
	if !errors.Is(err, ErrLengthOverflow) {
		t.Fatalf("err = %v, want ErrLengthOverflow", err)
	}
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("err = %T, want *DecodeError", err)
	}
	if de.Section != "program" {
		t.Errorf("section = %q, want %q", de.Section, "program")
	}
	if delta > 1<<20 {
		t.Errorf("decode of a %d-byte input allocated %d bytes", len(raw), delta)
	}
}

// TestInflatedCountsRejectedBounded patches each stream-count varint of
// a valid log to a huge value: every one must be rejected with
// ErrLengthOverflow and bounded allocation, never trusted into a make().
func TestInflatedCountsRejectedBounded(t *testing.T) {
	raw := marshalV1(sampleLog())
	// Walk the payload and, at every byte position, splice in a maximal
	// varint in place of the original byte. Wherever that position held a
	// count or length prefix, the decoder must fail fast; everywhere else
	// it may fail differently or even accept — but it must stay bounded.
	var huge [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(huge[:], 1<<62)
	for pos := len(rawMagic) + 1; pos < len(raw); pos++ {
		mut := make([]byte, 0, len(raw)+n)
		mut = append(mut, raw[:pos]...)
		mut = append(mut, huge[:n]...)
		mut = append(mut, raw[pos+1:]...)
		delta := allocDelta(func() { unmarshalV1(mut) })
		if delta > 4<<20 {
			t.Fatalf("byte %d: inflated varint drove allocation to %d bytes", pos, delta)
		}
	}
}

func TestTypedDecodeErrors(t *testing.T) {
	if _, err := unmarshalV1([]byte("XXXXX-not-a-log")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: err = %v, want ErrBadMagic", err)
	}
	raw := marshalV1(sampleLog())
	_, err := unmarshalV1(raw[:len(raw)-3])
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("truncated log: err = %T (%v), want *DecodeError", err, err)
	}
	if de.Offset <= 0 || de.Offset > len(raw) {
		t.Errorf("truncated log: offset = %d out of range", de.Offset)
	}
	if _, err := decompressV1([]byte("ZZZZZ")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad container magic: err = %v, want ErrBadMagic", err)
	}
	if _, err := decompressV1(append([]byte(fileMagic), 0xde, 0xad)); err == nil {
		t.Error("broken flate stream accepted")
	}
}

func TestValidateTypedErrors(t *testing.T) {
	log := sampleLog()
	log.Threads = append(log.Threads, log.Threads[0]) // duplicate TID
	err := log.Validate()
	var ve *ValidateError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %T (%v), want *ValidateError", err, err)
	}
	if ve.Check != "thread-ids" || ve.TID != 0 {
		t.Errorf("err = %+v, want thread-ids check on tid 0", ve)
	}

	log = sampleLog()
	log.Threads[0].Seqs[1].Idx = log.Threads[0].Retired + 5
	err = log.Validate()
	if !errors.As(err, &ve) || ve.Check != "seq-indices" {
		t.Errorf("sequencer beyond retirement: err = %v, want seq-indices ValidateError", err)
	}
}

// TestCorruptCorpusRejected drives the checked-in known-bad corpus, v1
// and v2 files alike, through the decode path analyze-dir runs (thread
// salvage on, then Validate): every file must be rejected with a typed
// error, without panicking.
func TestCorruptCorpusRejected(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corrupt", "*.rlog"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no corrupt corpus checked in")
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: decode panicked: %v", name, r)
				}
			}()
			log, _, err := Decode(data, DecodeOptions{Salvage: true})
			if err == nil {
				err = log.Validate()
			}
			if err == nil {
				t.Errorf("%s: known-bad file accepted", name)
				return
			}
			var de *DecodeError
			var ve *ValidateError
			if !errors.As(err, &de) && !errors.As(err, &ve) {
				t.Errorf("%s: error not typed: %T: %v", name, err, err)
			}
			if !strings.HasPrefix(err.Error(), "trace: ") {
				t.Errorf("%s: error missing package prefix: %v", name, err)
			}
		}()
	}
}
