package memostore

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vproc"
)

func fpN(n byte) vproc.Fingerprint {
	var fp vproc.Fingerprint
	for i := range fp {
		fp[i] = n
	}
	return fp
}

func sampleResult(reason string) vproc.Result {
	return vproc.Result{
		Outcome:    vproc.StateChange,
		FailReason: reason,
		OrigFail:   "",
		AltFail:    "alternative order: " + reason,
		Diffs: []vproc.Diff{
			{Kind: "reg", TID: 1, Index: 3, Orig: 7, Alt: 9},
			{Kind: "mem", TID: -1, Index: 0x40, Orig: 0, Alt: 1},
		},
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleResult("x")
	s.Put(fpN(1), want)
	if got, ok := s.Get(fpN(1)); !ok {
		t.Fatal("expected hit after Put")
	} else if got.Outcome != want.Outcome || got.AltFail != want.AltFail || len(got.Diffs) != 2 || got.Diffs[1] != want.Diffs[1] {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	s.Close()

	// A fresh process over the same directory sees the entry.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.entries) != 1 {
		t.Fatalf("reopened store has %d entries, want 1", len(s2.entries))
	}
	if got, ok := s2.Get(fpN(1)); !ok || got.Diffs[0] != want.Diffs[0] {
		t.Fatalf("reopened Get = %+v, %v", got, ok)
	}
}

func TestMissCounting(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(fpN(9)); ok {
		t.Fatal("unexpected hit in empty store")
	}
	s.Put(fpN(9), sampleResult("y"))
	s.Get(fpN(9))
	snap := reg.Snapshot()
	if snap.Counters["memostore.misses"] != 1 || snap.Counters["memostore.hits"] != 1 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

// Corruption of any entry byte must degrade to a miss and delete the
// file — never an error, never a panic, never a wrong result.
func TestCorruptEntryDegradesToMiss(t *testing.T) {
	for _, mutate := range []struct {
		name string
		f    func(b []byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"future-version", func(b []byte) []byte { b[5] = 99; return b }},
		{"payload-flip", func(b []byte) []byte { b[headerLen] ^= 0x01; return b }},
		{"checksum-flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		t.Run(mutate.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			dir := t.TempDir()
			s, err := Open(dir, Options{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			s.Put(fpN(2), sampleResult("z"))
			path := filepath.Join(dir, entryName(fpN(2)))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate.f(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(fpN(2)); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if reg.Snapshot().Counters["memostore.corrupt"] != 1 {
				t.Fatalf("corrupt counter = %v", reg.Snapshot().Counters)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry file not deleted")
			}
			// The store stays usable: a re-Put re-creates the entry.
			s.Put(fpN(2), sampleResult("z"))
			if _, ok := s.Get(fpN(2)); !ok {
				t.Fatal("store unusable after corrupt entry recovery")
			}
		})
	}
}

func TestSizeBoundedOldestFirstGC(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	// Cap small enough that ~3 entries fit.
	probe, _ := encodeEntry(sampleResult("pad"))
	s, err := Open(dir, Options{MaxBytes: int64(3 * len(probe)), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 6; i++ {
		s.Put(fpN(i), sampleResult("pad"))
	}
	if s.bytes > int64(3*len(probe)) {
		t.Fatalf("store over cap: %d > %d", s.bytes, 3*len(probe))
	}
	ev := reg.Snapshot().Counters["memostore.evictions"]
	if ev == 0 {
		t.Fatal("no evictions counted")
	}
	// Oldest-first: the earliest fingerprints are gone, the latest
	// survive.
	if _, ok := s.Get(fpN(1)); ok {
		t.Fatal("oldest entry survived GC")
	}
	if _, ok := s.Get(fpN(6)); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestOpenGCsInheritedOverflow(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 4; i++ {
		s.Put(fpN(i), sampleResult("pad"))
		// Distinct mtimes so the inherited eviction order is stable on
		// filesystems with coarse timestamps.
		past := time.Now().Add(-time.Hour + time.Duration(i)*time.Minute)
		os.Chtimes(filepath.Join(dir, entryName(fpN(i))), past, past)
	}
	probe, _ := encodeEntry(sampleResult("pad"))
	s2, err := Open(dir, Options{MaxBytes: int64(2 * len(probe))})
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.entries) != 2 {
		t.Fatalf("inherited store holds %d entries after GC, want 2", len(s2.entries))
	}
	if _, ok := s2.Get(fpN(1)); ok {
		t.Fatal("oldest inherited entry survived Open GC")
	}
	if _, ok := s2.Get(fpN(4)); !ok {
		t.Fatal("newest inherited entry evicted by Open GC")
	}
}

func TestOpenSweepsTempFilesAndIgnoresForeign(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "put-123.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.entries) != 0 {
		t.Fatalf("store indexed %d entries from junk", len(s.entries))
	}
	if _, err := os.Stat(filepath.Join(dir, "put-123.tmp")); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file not swept")
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("foreign file was touched")
	}
}

func TestFirstWriterWins(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(fpN(3), sampleResult("first"))
	s.Put(fpN(3), sampleResult("second"))
	got, ok := s.Get(fpN(3))
	if !ok || got.FailReason != "first" {
		t.Fatalf("Get = %+v, %v; want first writer's entry", got, ok)
	}
	if len(s.entries) != 1 {
		t.Fatalf("store indexed %d entries, want 1", len(s.entries))
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w byte) {
			defer func() { done <- struct{}{} }()
			for i := byte(0); i < 32; i++ {
				fp := fpN(i % 8)
				s.Put(fp, sampleResult("c"))
				if res, ok := s.Get(fp); ok && res.FailReason != "c" {
					t.Errorf("wrong payload under concurrency: %+v", res)
				}
			}
		}(byte(w))
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if len(s.entries) != 8 {
		t.Fatalf("store indexed %d entries, want 8", len(s.entries))
	}
}
