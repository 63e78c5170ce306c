package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"

	racereplay "repro"
)

// readTrace loads and schema-checks a trace file, returning the decoded
// events bucketed by phase for assertions.
func readTrace(t *testing.T, path string) (threads []string, slices, instants map[string]int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := obs.ValidateTrace(data)
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	slices, instants = map[string]int{}, map[string]int{}
	for _, ev := range f.TraceEvents {
		switch ev.Phase {
		case "M":
			if ev.Name == "thread_name" {
				threads = append(threads, ev.Args["name"].(string))
			}
		case "X":
			slices[ev.Name]++
		case "i":
			instants[ev.Name]++
		}
	}
	return threads, slices, instants
}

// TestCmdSuiteTraceOut is the flight-recorder acceptance check: one
// parallel suite run must export a valid Chrome trace with per-worker
// lanes covering every pipeline stage plus the memo instants. The run is
// audited, since only an audited batch consults the replay memo.
func TestCmdSuiteTraceOut(t *testing.T) {
	resetExit(t)
	dir := t.TempDir()
	dest := filepath.Join(dir, "trace.json")
	capture(t, func() error {
		return cmdSuite([]string{"-seeds", "2", "-jobs", "4", "-trace-out", dest,
			"-audit-out", filepath.Join(dir, "audit.json")})
	})
	threads, slices, instants := readTrace(t, dest)

	if len(threads) < 2 {
		t.Fatalf("want a main lane plus worker lanes, got threads %v", threads)
	}
	if threads[0] != "main" {
		t.Errorf("lane 0 = %q, want main", threads[0])
	}
	workers := 0
	for _, name := range threads[1:] {
		if name != "main" {
			workers++
		}
	}
	if workers == 0 {
		t.Errorf("no worker lanes in trace: %v", threads)
	}
	for _, stage := range []string{"suite", "record", "replay", "detect", "classify"} {
		if slices[stage] == 0 {
			t.Errorf("no %q slice in trace (slices: %v)", stage, slices)
		}
	}
	if instants["classify.memo.miss"] == 0 {
		t.Errorf("no memo-miss instants (instants: %v)", instants)
	}
	if instants["classify.memo.hit"] == 0 {
		t.Errorf("no memo-hit instants (instants: %v)", instants)
	}
}

// TestCmdSuiteAuditByteIdenticalAcrossJobs: the -audit-out file is a
// deterministic function of the inputs, independent of worker count.
func TestCmdSuiteAuditByteIdenticalAcrossJobs(t *testing.T) {
	resetExit(t)
	dir := t.TempDir()
	serial, parallel := filepath.Join(dir, "a1.json"), filepath.Join(dir, "a8.json")
	capture(t, func() error { return cmdSuite([]string{"-seeds", "2", "-jobs", "1", "-audit-out", serial}) })
	capture(t, func() error { return cmdSuite([]string{"-seeds", "2", "-jobs", "8", "-audit-out", parallel}) })
	a, err := os.ReadFile(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("audit trail diverges between -jobs 1 and -jobs 8:\n--- jobs 1 ---\n%s\n--- jobs 8 ---\n%s", a, b)
	}
	file, err := racereplay.ReadAuditFile(serial)
	if err != nil {
		t.Fatalf("audit file does not load: %v", err)
	}
	if len(file.Executions) == 0 {
		t.Fatal("audit file has no executions")
	}
	for _, ex := range file.Executions {
		if ex.Quarantined == "" && len(ex.LogSHA256) != 64 {
			t.Errorf("%s: log hash %q is not a sha256", ex.Scenario, ex.LogSHA256)
		}
	}
	if hits, _ := file.CacheHits(); hits == 0 {
		t.Error("audit trail records no cached replays")
	}

	// racer audit renders the trail for humans.
	out := capture(t, func() error { return cmdAudit([]string{serial}) })
	for _, want := range []string{"audit trail (racereplay-audit/v1)", "log sha256", "<->"} {
		if !strings.Contains(out, want) {
			t.Errorf("audit rendering missing %q:\n%s", want, out)
		}
	}
	if err := cmdAudit([]string{serial, "extra"}); err == nil {
		t.Error("audit with two files accepted")
	}
	if err := cmdAudit([]string{filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("audit with a missing file accepted")
	}
}

// TestCmdAnalyzeDirAuditAndTrace: the offline path carries the same
// provenance — quarantined files appear in both the audit trail and the
// timeline, healthy files get decode instants and log hashes.
func TestCmdAnalyzeDirAuditAndTrace(t *testing.T) {
	resetExit(t)
	dir := filepath.Join(t.TempDir(), "logs")
	capture(t, func() error { return cmdRecordSuite([]string{"-dir", dir}) })
	bad, err := os.ReadFile(corruptCorpus(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "zz-bad.rlog"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	auditDest := filepath.Join(t.TempDir(), "audit.json")
	traceDest := filepath.Join(t.TempDir(), "trace.json")
	capture(t, func() error {
		return cmdAnalyzeDir([]string{"-dir", dir, "-jobs", "4",
			"-audit-out", auditDest, "-trace-out", traceDest})
	})

	_, slices, instants := readTrace(t, traceDest)
	if slices["decode"] == 0 {
		t.Errorf("no decode slice in trace (slices: %v)", slices)
	}
	if instants["decode"] == 0 {
		t.Errorf("no per-file decode instants (instants: %v)", instants)
	}
	if instants["quarantine"] == 0 {
		t.Errorf("corrupt log left no quarantine instant (instants: %v)", instants)
	}

	file, err := racereplay.ReadAuditFile(auditDest)
	if err != nil {
		t.Fatalf("audit file does not load: %v", err)
	}
	quarantined := 0
	for _, ex := range file.Executions {
		if ex.Quarantined != "" {
			quarantined++
			if ex.Scenario != "zz-bad.rlog" {
				t.Errorf("unexpected quarantined execution %q", ex.Scenario)
			}
		} else if len(ex.LogSHA256) != 64 {
			t.Errorf("%s: log hash %q is not a sha256", ex.Scenario, ex.LogSHA256)
		}
	}
	if quarantined != 1 {
		t.Errorf("audit trail has %d quarantined executions, want 1", quarantined)
	}
	if len(file.Executions) < 2 {
		t.Errorf("audit trail covers %d executions, want every input", len(file.Executions))
	}
}

// TestCmdValidateMetricsAndLogs: validate now participates in the
// observability layer — counters for the sweep, a structured log record
// per invalid file.
func TestCmdValidateMetricsAndLogs(t *testing.T) {
	resetExit(t)
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "ok.rlog")
	capture(t, func() error { return cmdRecord([]string{"-o", logPath, prog}) })
	logDest := filepath.Join(t.TempDir(), "validate.jsonl")

	out := capture(t, func() error {
		return cmdValidate([]string{"-metrics=json", "-log-out", logDest, "-log-level", "warn",
			logPath, corruptCorpus(t)[0]})
	})
	snap := extractJSON(t, out)
	if snap.Counters["validate.files"] != 2 {
		t.Errorf("validate.files = %d, want 2", snap.Counters["validate.files"])
	}
	if snap.Counters["validate.invalid"] != 1 {
		t.Errorf("validate.invalid = %d, want 1", snap.Counters["validate.invalid"])
	}
	if snap.Counters["validate.instructions"] == 0 || snap.Counters["validate.threads"] == 0 {
		t.Errorf("healthy-log counters missing: %v", snap.Counters)
	}

	data, err := os.ReadFile(logDest)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec["msg"] == "invalid log" {
			found = true
			if rec["level"] != "WARN" || rec["file"] == "" || rec["err"] == "" {
				t.Errorf("invalid-log record incomplete: %v", rec)
			}
		}
	}
	if !found {
		t.Errorf("no structured record for the invalid log:\n%s", data)
	}
}

// TestCmdProfileGracefulSignal: SIGINT mid-run stops the loop, still
// flushes the ladder and the -trace-out timeline, and exits 0. The
// /trace endpoint serves a loadable trace while the run is live.
func TestCmdProfileGracefulSignal(t *testing.T) {
	resetExit(t)
	traceDest := filepath.Join(t.TempDir(), "trace.json")
	served := make(chan error, 1)
	profileReady = func(addr string) {
		served <- func() error {
			resp, err := http.Get("http://" + addr + "/trace")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("/trace content type = %q", ct)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			if _, err := obs.ValidateTrace(body); err != nil {
				return err
			}
			if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
				return err
			}
			// Give the notify goroutine a beat to flip the context before
			// the first iteration starts.
			time.Sleep(100 * time.Millisecond)
			return nil
		}()
	}
	defer func() { profileReady = nil }()

	out := capture(t, func() error {
		return cmdProfile([]string{"-addr", "127.0.0.1:0", "-iterations", "3",
			"-hold", "30s", "-trace-out", traceDest})
	})
	if err := <-served; err != nil {
		t.Fatalf("/trace endpoint: %v", err)
	}
	for _, want := range []string{"iteration 1/3 done", "interrupted: flushing and shutting down", "spans:\n  suite "} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
	_, slices, _ := readTrace(t, traceDest)
	if slices["suite"] == 0 {
		t.Errorf("flushed trace has no suite slice (slices: %v)", slices)
	}
}
