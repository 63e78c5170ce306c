package core

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/audit"
	"repro/internal/classify"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/trace"
)

const racySrc = `
.entry main
.word n 0
worker:
  ldi r2, 10
wloop:
  ldi r4, n
  ld r5, [r4+0]
  addi r5, r5, 1
  st [r4+0], r5
  sys sysnop
  addi r2, r2, -1
  bne r2, r0, wloop
  ldi r1, 0
  sys exit
main:
  ldi r1, worker
  ldi r2, 0
  sys spawn
  mov r6, r1
  ldi r1, worker
  sys spawn
  mov r7, r1
  mov r1, r6
  sys join
  mov r1, r7
  sys join
  halt
`

func TestAnalyzeEndToEnd(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(prog, machine.Config{Seed: 4}, classify.Options{Scenario: "core"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine == nil || res.Log == nil || res.Exec == nil || res.Races == nil || res.Classification == nil {
		t.Fatal("incomplete result")
	}
	if res.Log.Instructions() == 0 {
		t.Error("empty log")
	}
	if res.LogStats().RawBytes == 0 {
		t.Error("empty stats")
	}
	// Classification covers exactly the detected races.
	if len(res.Classification.Races) != len(res.Races.Races) {
		t.Errorf("classified %d of %d races", len(res.Classification.Races), len(res.Races.Races))
	}
	// Seed defaulting: opts.Seed inherits cfg.Seed.
	for _, r := range res.Classification.Races {
		for _, s := range r.Samples {
			if s.Seed != 4 {
				t.Errorf("sample seed = %d, want 4", s.Seed)
			}
		}
	}
}

func TestAnalyzeLogMatchesAnalyze(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := record.Run(prog, machine.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the log through serialization before the offline half.
	log2, _, err := trace.Decode(trace.MarshalV2(log), trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeLog(log2, classify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(prog, machine.Config{Seed: 9}, classify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Races.Races) != len(b.Races.Races) {
		t.Errorf("race counts differ: %d vs %d", len(a.Races.Races), len(b.Races.Races))
	}
	if a.Classification.TotalInstances() != b.Classification.TotalInstances() {
		t.Errorf("instance counts differ: %d vs %d",
			a.Classification.TotalInstances(), b.Classification.TotalInstances())
	}
}

// TestCollectEvidenceObservedSites checks that the evidence names the
// site of every replayed access under any seed, and no other site.
func TestCollectEvidenceObservedSites(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	want := map[string]bool{}
	for seed := int64(1); seed <= 2; seed++ {
		res, err := Analyze(prog, machine.Config{Seed: seed}, classify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, region := range res.Exec.Regions {
			for _, acc := range region.Accesses {
				want[acc.Site(prog)] = true
			}
		}
		results = append(results, res)
	}
	if got := CollectEvidence(results).ObservedSites; len(want) < 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("observed sites %v, want %v", got, want)
	}
}

func TestAnalyzeRejectsBadProgram(t *testing.T) {
	prog, err := asm.Assemble("empty", "main:\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	prog.Entry = 99 // corrupt after assembly
	if _, err := Analyze(prog, machine.Config{Seed: 1}, classify.Options{}); err == nil {
		t.Error("corrupt program accepted")
	}
}

// TestAnalyzeLogsMatchesSerial: the batch API returns, for every log,
// exactly what AnalyzeLog returns, in input order, at any worker count.
func TestAnalyzeLogsMatchesSerial(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	var logs []*trace.Log
	for seed := int64(1); seed <= 6; seed++ {
		log, _, err := record.Run(prog, machine.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, log)
	}
	optsFor := func(i int) classify.Options {
		return classify.Options{Scenario: "core", Seed: int64(i + 1)}
	}
	want := make([]*Result, len(logs))
	for i, log := range logs {
		if want[i], err = AnalyzeLog(log, optsFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, jobs := range []int{1, 4, 16} {
		got, quarantined := AnalyzeLogsInstrumented(logs, optsFor, jobs, nil)
		if len(quarantined) != 0 {
			t.Fatalf("jobs=%d: healthy batch quarantined %v", jobs, quarantined)
		}
		if len(got) != len(want) {
			t.Fatalf("jobs=%d: %d results, want %d", jobs, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Classification, want[i].Classification) {
				t.Errorf("jobs=%d: log %d classification differs from serial", jobs, i)
			}
			if len(got[i].Races.Races) != len(want[i].Races.Races) {
				t.Errorf("jobs=%d: log %d race count differs", jobs, i)
			}
		}
	}
}

// TestAnalyzeLogsQuarantinesBadItems: corrupt logs mid-batch do not
// abort it — the healthy log is still analyzed and each bad log lands
// in the quarantine list, labeled and in index order, at any worker
// count.
func TestAnalyzeLogsQuarantinesBadItems(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := record.Run(prog, machine.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a copy of the log: stripping the logged load values makes
	// every shared-memory read unresolvable, which replay must reject.
	bad := *good
	bad.Threads = make([]*trace.ThreadLog, len(good.Threads))
	for i, tl := range good.Threads {
		cp := *tl
		cp.Loads = nil
		bad.Threads[i] = &cp
	}
	logs := []*trace.Log{good, &bad, &bad}
	for _, jobs := range []int{1, 4} {
		reg := obs.NewRegistry()
		results, quarantined := AnalyzeLogsInstrumented(logs, func(i int) classify.Options {
			return classify.Options{Scenario: fmt.Sprintf("log%d", i)}
		}, jobs, reg)
		if len(results) != 3 || results[0] == nil {
			t.Fatalf("jobs=%d: healthy log not analyzed (results %v)", jobs, results)
		}
		if results[1] != nil || results[2] != nil {
			t.Errorf("jobs=%d: corrupt logs produced results", jobs)
		}
		if len(quarantined) != 2 {
			t.Fatalf("jobs=%d: quarantined %d items, want 2", jobs, len(quarantined))
		}
		if quarantined[0].Index != 1 || quarantined[0].Label != "log1" || quarantined[0].Err == nil {
			t.Errorf("jobs=%d: first quarantined item = %+v", jobs, quarantined[0])
		}
		if !strings.Contains(quarantined[0].String(), "log1") {
			t.Errorf("jobs=%d: quarantine line %q not labeled", jobs, quarantined[0])
		}
		if got := reg.Counter("robust.quarantined").Value(); got != 2 {
			t.Errorf("jobs=%d: robust.quarantined = %d, want 2", jobs, got)
		}
	}
}

// TestAnalyzeLogsIsolatesPanics: a log whose analysis panics outright
// (nil program) quarantines as a *sched.PanicError instead of crashing
// the batch.
func TestAnalyzeLogsIsolatesPanics(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := record.Run(prog, machine.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Prog = nil // replay dereferences the program: guaranteed panic or error
	for _, jobs := range []int{1, 4} {
		results, quarantined := AnalyzeLogsInstrumented([]*trace.Log{&bad, good}, func(i int) classify.Options {
			return classify.Options{Scenario: fmt.Sprintf("log%d", i)}
		}, jobs, nil)
		if results[1] == nil {
			t.Fatalf("jobs=%d: healthy log lost to the panicking one", jobs)
		}
		if len(quarantined) != 1 || quarantined[0].Index != 0 {
			t.Fatalf("jobs=%d: quarantine = %v, want the panicking log only", jobs, quarantined)
		}
	}
}

// TestDecodeLogBothFormats: DecodeLogOpts and DecodeLogFrom read a v2
// container and a checked-in legacy v1 recording of the same execution
// to the same log, the one the v2 twin encodes byte for byte.
func TestDecodeLogBothFormats(t *testing.T) {
	legacy := filepath.Join("..", "..", "testdata", "legacy")
	want, err := os.ReadFile(filepath.Join(legacy, "v2", "exec11-0.rlog"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join(legacy, "v1", "exec11-0.rlog"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v1": v1, "v2": want} {
		got, _, err := DecodeLogOpts(data, DecodeOptions{})
		if err != nil {
			t.Fatalf("%s: DecodeLogOpts: %v", name, err)
		}
		if !bytes.Equal(trace.MarshalV2(got), want) {
			t.Errorf("%s: DecodeLogOpts round-trip diverged", name)
		}
		got2, faults, err := DecodeLogFrom(bytes.NewReader(data), int64(len(data)),
			DecodeOptions{Salvage: true, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("%s: DecodeLogFrom: %v", name, err)
		}
		if len(faults) != 0 {
			t.Errorf("%s: DecodeLogFrom faults = %v on an intact log", name, faults)
		}
		if !bytes.Equal(trace.MarshalV2(got2), want) {
			t.Errorf("%s: DecodeLogFrom round-trip diverged", name)
		}
	}
	if _, _, err := DecodeLogOpts([]byte("not a log at all"), DecodeOptions{}); err == nil {
		t.Error("garbage accepted")
	}
}

// probeReader serves data through io.ReaderAt, reading as zeros past
// its end up to a claimed size, and counts the bytes it was asked for.
type probeReader struct {
	data []byte
	read int
}

func (p *probeReader) ReadAt(b []byte, off int64) (int, error) {
	p.read += len(b)
	clear(b)
	if off < int64(len(p.data)) {
		copy(b, p.data[off:])
	}
	return len(b), nil
}

// TestDecodeLogFromMatchesBytes: DecodeLogFrom over a file returns what
// DecodeLogOpts returns for the file's bytes — the same log, the same
// fault list and the same error string (serve's quarantine JSON carries
// it) — over compressed and raw v1, v2, the checked-in legacy twins, a
// v2 container with one corrupt thread segment, one with a flag bit set,
// and every file of the corrupt corpus, strict and salvaging. It reads
// only the magic of junk, and refuses a size past trace.MaxRawLogBytes
// before allocating it.
func TestDecodeLogFromMatchesBytes(t *testing.T) {
	root := filepath.Join("..", "..", "testdata")
	inputs := map[string][]byte{}
	read := func(name, path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs[name] = data
		return data
	}
	for _, name := range []string{"exec01-0.rlog", "exec11-0.rlog"} {
		v1 := read("legacy-v1-"+name, filepath.Join(root, "legacy", "v1", name))
		read("legacy-v2-"+name, filepath.Join(root, "legacy", "v2", name))
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(v1[len("RRLZ1"):])))
		if err != nil {
			t.Fatal(err)
		}
		inputs["raw-v1-"+name] = raw
	}
	corpus, err := filepath.Glob(filepath.Join(root, "corrupt", "*.rlog"))
	if err != nil || len(corpus) == 0 {
		t.Fatalf("corrupt corpus: %v (%d files)", err, len(corpus))
	}
	for _, path := range corpus {
		read("corrupt-"+filepath.Base(path), path)
	}
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := record.Run(prog, machine.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	v2 := trace.MarshalV2(log)
	inputs["v2"] = v2
	torn := bytes.Clone(v2)
	spans, ok := trace.V2SegmentSpans(torn)
	if !ok || len(spans) < 3 {
		t.Fatalf("recorded container has %d segments, want a meta and two threads", len(spans))
	}
	torn[(spans[1][0]+spans[1][1])/2] ^= 0x55
	inputs["v2-torn-thread"] = torn
	flagged := bytes.Clone(v2)
	flagged[6] = 0x01
	inputs["v2-flagged"] = flagged

	dir := t.TempDir()
	describe := func(log *trace.Log, faults []trace.ThreadFault, err error) string {
		var b strings.Builder
		if log != nil {
			fmt.Fprintf(&b, "log %x\n", trace.MarshalV2(log))
		}
		for _, f := range faults {
			fmt.Fprintf(&b, "fault %v\n", f)
		}
		if err != nil {
			fmt.Fprintf(&b, "err %v\n", err)
		}
		return b.String()
	}
	salvaged := 0
	for name, data := range inputs {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, salvage := range []bool{false, true} {
			opts := DecodeOptions{Salvage: salvage}
			want := describe(DecodeLogOpts(data, opts))
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			got := describe(DecodeLogFrom(f, int64(len(data)), opts))
			f.Close()
			if got != want {
				t.Errorf("%s salvage=%v: DecodeLogFrom\n%s\nDecodeLogOpts\n%s", name, salvage, got, want)
			}
			if salvage && strings.Contains(want, "fault ") && strings.HasPrefix(want, "log ") {
				salvaged++
			}
		}
	}
	if salvaged == 0 {
		t.Error("no input was salvaged, so no fault list was compared")
	}

	junk := &probeReader{data: bytes.Repeat([]byte{0xab}, 4096)}
	if _, _, err := DecodeLogFrom(junk, 4096, DecodeOptions{}); !errors.Is(err, trace.ErrBadMagic) {
		t.Errorf("junk: err = %v, want ErrBadMagic", err)
	}
	if junk.read > len("RRSG2") {
		t.Errorf("junk: read %d bytes, want only the magic", junk.read)
	}

	huge := &probeReader{data: v2[:len("RRSG2")]}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err = DecodeLogFrom(huge, trace.MaxRawLogBytes+1, DecodeOptions{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, trace.ErrTooLarge) {
		t.Errorf("oversized: err = %v, want ErrTooLarge", err)
	}
	if huge.read > len("RRSG2") {
		t.Errorf("oversized: read %d bytes, want only the magic", huge.read)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("oversized: allocated %d bytes before rejecting", alloc)
	}
}

// TestBatchMemoServesAuditedItemsOnly: an un-audited batch replays every
// instance and publishes no classify.memo.* metric; the same batch with
// audits shares one memo, whose hits and misses equal the audit's derived
// cache hits; and both runs classify every execution alike.
func TestBatchMemoServesAuditedItemsOnly(t *testing.T) {
	prog, err := asm.Assemble("core", racySrc)
	if err != nil {
		t.Fatal(err)
	}
	// Two executions of one program; the second is recorded under the
	// first's seed, so every one of its instances recurs.
	var logs []*trace.Log
	for _, seed := range []int64{3, 3} {
		log, _, err := record.Run(prog, machine.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, log)
	}
	run := func(audited bool) ([]*Result, *audit.File, obs.Snapshot) {
		reg := obs.NewRegistry()
		var file *audit.File
		if audited {
			file = audit.NewFile()
			file.Executions = make([]audit.Execution, len(logs))
		}
		results, quarantined := AnalyzeLogsInstrumented(logs, func(i int) classify.Options {
			o := classify.Options{Scenario: fmt.Sprintf("core#%d", i), Seed: logs[i].Seed}
			if file != nil {
				o.Audit = &file.Executions[i]
			}
			return o
		}, 2, reg)
		if len(quarantined) != 0 {
			t.Fatalf("audited=%v: healthy batch quarantined %v", audited, quarantined)
		}
		if file != nil {
			file.DeriveCacheHits()
		}
		return results, file, reg.Snapshot()
	}

	plain, _, snap := run(false)
	for name := range snap.Counters {
		if strings.HasPrefix(name, "classify.memo.") {
			t.Errorf("un-audited batch publishes counter %s", name)
		}
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "classify.memo.") {
			t.Errorf("un-audited batch publishes gauge %s", name)
		}
	}

	audited, file, snap := run(true)
	hits, misses := file.CacheHits()
	if hits == 0 {
		t.Error("audited batch of two equal executions derives no cache hits")
	}
	if got := snap.Counters["classify.memo.hits"]; got != uint64(hits) {
		t.Errorf("classify.memo.hits = %d, audit derives %d", got, hits)
	}
	if got := snap.Counters["classify.memo.misses"]; got != uint64(misses) {
		t.Errorf("classify.memo.misses = %d, audit derives %d", got, misses)
	}
	for i := range plain {
		if !reflect.DeepEqual(plain[i].Classification, audited[i].Classification) {
			t.Errorf("log %d: classification differs between the un-audited and audited batch", i)
		}
	}
}
