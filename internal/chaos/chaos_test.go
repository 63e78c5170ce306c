package chaos

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/trace"
)

const racySrc = `
.entry main
.word g 0
worker:
  ldi r2, g
  ld r3, [r2+0]
  addi r3, r3, 1
  st [r2+0], r3
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r8, r1
  ldi r1, worker
  ldi r2, 1
  sys spawn
  mov r9, r1
  mov r1, r8
  sys join
  mov r1, r9
  sys join
  halt
`

// sampleContainer records a small racy program and returns its .rlog
// bytes.
func sampleContainer(t *testing.T) []byte {
	t.Helper()
	prog, err := asm.Assemble("chaos", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := record.Run(prog, machine.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInjectorDeterministic: equal (seed, trial) pairs produce
// identical corrupted bytes; different seeds diverge.
func TestInjectorDeterministic(t *testing.T) {
	container := sampleContainer(t)
	a := NewInjector(7)
	b := NewInjector(7)
	diverged := false
	for i := 0; i < 32; i++ {
		x, kx := a.CorruptFile(container, i)
		y, ky := b.CorruptFile(container, i)
		if kx != ky || !bytes.Equal(x, y) {
			t.Fatalf("trial %d not deterministic", i)
		}
		z, _ := NewInjector(8).CorruptFile(container, i)
		if !bytes.Equal(x, z) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("seeds 7 and 8 produced identical corruption streams")
	}
}

// checkContract runs 240 corruptions of container and fails on any
// contract violation, on a sweep that rejected nothing, and on a kind
// the rotation never injected.
func checkContract(t *testing.T, name string, container []byte) {
	t.Helper()
	reg := obs.NewRegistry()
	rep := Run(container, 240, 1, reg)
	if v := rep.Violations(); v != 0 {
		for _, tr := range rep.Trials {
			if tr.Panicked {
				t.Errorf("%s: trial %d (%v) panicked: %s", name, tr.Index, tr.Kind, tr.PanicValue)
			}
			if tr.Unbounded {
				t.Errorf("%s: trial %d (%v): %d input bytes allocated %d", name, tr.Index, tr.Kind, tr.InputBytes, tr.AllocBytes)
			}
			if tr.Err != nil && !typedError(tr.Err) {
				t.Errorf("%s: trial %d (%v): untyped error %T: %v", name, tr.Index, tr.Kind, tr.Err, tr.Err)
			}
		}
		t.Fatalf("%s: %d contract violations:\n%s", name, v, rep.Summary())
	}
	if rep.Rejected == 0 {
		t.Errorf("%s: no corruption was rejected — injector is a no-op?", name)
	}
	byKind := rep.ByKind()
	for _, k := range Kinds() {
		if byKind[k][0] == 0 {
			t.Errorf("%s: kind %v never injected", name, k)
		}
	}
	if got := reg.Counter("chaos.trials").Value(); got != 240 {
		t.Errorf("%s: chaos.trials = %d, want 240", name, got)
	}
	if got := reg.Counter("chaos.panics").Value(); got != 0 {
		t.Errorf("%s: chaos.panics = %d, want 0", name, got)
	}
}

// TestRunContractHolds is the package's own acceptance check: 200+
// corruptions of a real recorded log, zero panics, zero unbounded
// allocations, zero untyped errors. It also sweeps a checked-in legacy
// v1 file, which takes the container-level corruptions only and keeps
// the legacy decoder under them.
func TestRunContractHolds(t *testing.T) {
	checkContract(t, "recorded", sampleContainer(t))
	legacy, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy", "v1", "exec01-0.rlog"))
	if err != nil {
		t.Fatal(err)
	}
	checkContract(t, "legacy v1", legacy)
}

// TestRunContractHoldsV2: the contract holds over a v2 container that
// carries key frames, so corruption also reaches the key-frame decoding
// (sparse register files, memory views) a plain recording never has.
func TestRunContractHoldsV2(t *testing.T) {
	prog, err := asm.Assemble("chaos", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, _, err := record.RunOnline(prog, machine.Config{Seed: 3}, record.OnlineConfig{KeyFrameInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, th := range log.Threads {
		frames += len(th.KeyFrames)
	}
	if frames == 0 {
		t.Fatal("recording carries no key frames")
	}
	checkContract(t, "key frames", trace.MarshalV2(log))
}

// TestKnownBadAllKindsFail: the corpus generator must return bytes that
// actually fail the decode path, for every kind.
func TestKnownBadAllKindsFail(t *testing.T) {
	container := sampleContainer(t)
	bad := KnownBad(container, 99)
	for _, k := range Kinds() {
		data, ok := bad[k]
		if !ok {
			t.Errorf("kind %v: no known-bad bytes found", k)
			continue
		}
		if !decodeFails(data) {
			t.Errorf("kind %v: generated bytes decode fine", k)
		}
	}
}

// TestStructuredCorruptionsBreakInvariants: dup/drop sequencer mutants
// stay byte-well-formed — they must fail in Validate (the decoder's
// final validation), not in the varint parser.
func TestStructuredCorruptionsBreakInvariants(t *testing.T) {
	container := sampleContainer(t)
	in := NewInjector(5)
	for _, kind := range []Kind{KindDupSequencer, KindDropSequencer} {
		failed := 0
		for trial := 0; trial < 16; trial++ {
			mut := in.CorruptFileKind(container, kind, trial)
			if _, _, err := trace.Decode(mut, trace.DecodeOptions{}); err != nil {
				var ve *trace.ValidateError
				if !errors.As(err, &ve) {
					t.Errorf("%v trial %d: err = %v, want a *ValidateError", kind, trial, err)
				}
				failed++
			}
		}
		if failed == 0 {
			t.Errorf("%v: no trial broke a replay invariant", kind)
		}
	}
}

func TestReportSummary(t *testing.T) {
	container := sampleContainer(t)
	rep := Run(container, int(numKinds)*2, 42, nil)
	s := rep.Summary()
	for _, want := range []string{"corruptions", "contract:", "bit-flip", "garbage-tail"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestKnownBadV2: the corpus generator must produce bytes that fail
// the salvaging decode outright (whole-log quarantine) for the kinds the
// segmented layout is specifically exposed to — and the layout-targeting
// kinds must leave the v2 magic intact, proving they corrupted the
// structure, not just the magic.
func TestKnownBadV2(t *testing.T) {
	container := sampleContainer(t)
	bad := KnownBad(container, 99)
	mustFail := []Kind{KindTruncate, KindBadMagic, KindGarbageTail,
		KindIndexCorrupt, KindTornSegment, KindVarintOverrun}
	for _, k := range mustFail {
		data, ok := bad[k]
		if !ok {
			t.Errorf("kind %v: no known-bad v2 bytes found", k)
			continue
		}
		if !decodeFails(data) {
			t.Errorf("kind %v: generated v2 bytes decode fine", k)
		}
	}
	for _, k := range []Kind{KindIndexCorrupt, KindTornSegment, KindVarintOverrun} {
		if data, ok := bad[k]; ok && !bytes.HasPrefix(data, []byte("RRSG2")) {
			t.Errorf("kind %v: corruption destroyed the v2 magic instead of the layout", k)
		}
	}
}

// TestTornSegmentSalvageable: a tear confined to the last thread's
// segment is exactly what quarantine-mode decode exists for — the log
// salvages with that one thread dropped.
func TestTornSegmentSalvageable(t *testing.T) {
	container := sampleContainer(t)
	spans, ok := trace.V2SegmentSpans(container)
	if !ok || len(spans) < 3 {
		t.Fatalf("sample v2 container has %d segments, want >= 3", len(spans))
	}
	data := append([]byte(nil), container...)
	last := spans[len(spans)-1]
	for i := last[0]; i < last[1]; i++ {
		data[i] ^= 0xa5
	}
	if _, _, err := trace.Decode(data, trace.DecodeOptions{}); err == nil {
		t.Fatal("strict decode accepted a torn segment")
	}
	log, faults, err := trace.Decode(data, trace.DecodeOptions{Salvage: true})
	if err != nil {
		t.Fatalf("salvage decode failed: %v", err)
	}
	if len(faults) != 1 || faults[0].Segment != len(spans)-1 {
		t.Fatalf("faults = %v, want exactly the torn segment", faults)
	}
	if len(log.Threads) != len(spans)-2 {
		t.Fatalf("salvaged %d threads, want %d", len(log.Threads), len(spans)-2)
	}
}
