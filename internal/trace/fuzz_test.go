package trace

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// FuzzUnmarshal: arbitrary bytes must never panic the legacy v1 parser,
// and any log it accepts must validate and survive a re-marshal round
// trip. Its checked-in corpus is frozen: nothing writes v1 any more.
func FuzzUnmarshal(f *testing.F) {
	raw := marshalV1(sampleLog())
	f.Add(raw)
	f.Add([]byte("RRLOG"))
	f.Add([]byte{})
	f.Add(raw[:len(raw)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := unmarshalV1(data)
		if err != nil {
			return
		}
		if err := log.Validate(); err != nil {
			t.Fatalf("unmarshalV1 accepted an invalid log: %v", err)
		}
		again, err := unmarshalV1(marshalV1(log))
		if err != nil {
			t.Fatalf("re-marshal round trip failed: %v", err)
		}
		if again.Instructions() != log.Instructions() {
			t.Fatal("round trip changed instruction count")
		}
	})
}

// FuzzDecompress: the legacy v1 container parser must be total.
func FuzzDecompress(f *testing.F) {
	f.Add(compressV1([]byte("hello")))
	f.Add([]byte("RRLZ1junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		raw, err := decompressV1(data)
		if err == nil && !bytes.Equal(compressV1(raw)[:5], []byte("RRLZ1")) {
			t.Fatal("recompress lost magic")
		}
	})
}

// FuzzDecodeV2: the segmented container decoder must be total in both
// strict and salvaging modes, and any log it accepts must validate and
// survive a v2 re-encode round trip.
func FuzzDecodeV2(f *testing.F) {
	intact := MarshalV2(sampleLog())
	f.Add(intact)
	f.Add([]byte(fileMagicV2))
	f.Add([]byte{})
	f.Add(intact[:len(intact)/2])
	f.Add(encLenOverflowContainer()) // index encLen wraps the offset sum past 2^64
	typed := func(mode string, err error) {
		var de *DecodeError
		var ve *ValidateError
		if !errors.As(err, &de) && !errors.As(err, &ve) {
			panic(fmt.Sprintf("%s decode returned untyped error %T: %v", mode, err, err))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := Decode(data, DecodeOptions{}); err != nil {
			typed("strict", err)
		}
		log, _, err := Decode(data, DecodeOptions{Salvage: true})
		if err != nil {
			typed("salvage", err)
			return
		}
		if err := log.Validate(); err != nil {
			t.Fatalf("salvage decode returned a log that fails Validate: %v", err)
		}
		again, faults, err := Decode(MarshalV2(log), DecodeOptions{})
		if err != nil || len(faults) != 0 {
			t.Fatalf("re-encode round trip failed: faults=%v err=%v", faults, err)
		}
		if again.Instructions() != log.Instructions() {
			t.Fatal("round trip changed instruction count")
		}
	})
}
