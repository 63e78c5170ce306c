package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	racereplay "repro"
)

// extractJSON pulls the metrics JSON document out of captured output.
func extractJSON(t *testing.T, out string) racereplay.MetricsSnapshot {
	t.Helper()
	_, body, found := strings.Cut(out, "--- metrics ---")
	if !found {
		t.Fatalf("no metrics section in output:\n%s", out)
	}
	var snap racereplay.MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, body)
	}
	return snap
}

// TestSuiteMetricsJSON is the pipeline-wide acceptance check: one suite
// run must produce nonzero counters for every stage and a timed span for
// each.
func TestSuiteMetricsJSON(t *testing.T) {
	out := capture(t, func() error { return cmdSuite([]string{"-metrics=json"}) })
	snap := extractJSON(t, out)

	// Every pipeline stage must have reported in.
	for _, c := range []string{
		"record.executions", "record.instructions", "record.loads_logged",
		"replay.executions", "replay.regions", "replay.loads_injected",
		"detect.executions", "detect.region_pairs_examined", "detect.races",
		"classify.executions", "classify.instances_total", "classify.races",
		"report.scenarios", "report.unique_races", "report.instances",
		"record.loads_total", "record.sequencers",
		"vproc.instances_analyzed", "vproc.order_replays",
	} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s is zero after a suite run", c)
		}
	}
	if snap.Counters["record.loads_total"] !=
		snap.Counters["record.loads_logged"]+snap.Counters["record.loads_predicted"] {
		t.Error("loads_logged + loads_predicted != loads_total")
	}

	// Every stage runs under its own span below the suite's and
	// accumulates time there. Stage-vs-stage ratios are hardware noise
	// and are not checked.
	stages := make(map[string]int64)
	for _, top := range snap.Spans {
		if top.Name == "suite" {
			for _, sp := range top.Children {
				stages[sp.Name] += sp.Nanos
			}
		}
	}
	for _, name := range []string{"record", "replay", "detect", "classify"} {
		if stages[name] <= 0 {
			t.Errorf("span suite/%s has no accumulated time", name)
		}
	}
}

func TestRunMetricsText(t *testing.T) {
	path := writeProg(t)
	out := capture(t, func() error { return cmdRun([]string{"-metrics", path}) })
	for _, want := range []string{"spans:", "record", "counters:", "record.loads_logged", "record.loads_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("text metrics missing %q:\n%s", want, out)
		}
	}
}

// TestRecordKeyFramesMetrics: a key-frame recording publishes the same
// record.* and machine.* counters as a plain one, not just a bare span.
func TestRecordKeyFramesMetrics(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "kf.rlog")
	out := capture(t, func() error {
		return cmdRecord([]string{"-keyframes", "64", "-metrics=json", "-o", logPath, writeProg(t)})
	})
	var instructions uint64
	if _, err := fmt.Sscanf(out, "recorded %d instructions", &instructions); err != nil {
		t.Fatalf("no instruction count in output: %v\n%s", err, out)
	}
	snap := extractJSON(t, out)
	if got := snap.Counters["record.executions"]; got != 1 {
		t.Errorf("record.executions = %d, want 1", got)
	}
	if got := snap.Counters["record.instructions"]; got != instructions {
		t.Errorf("record.instructions = %d, want the printed %d", got, instructions)
	}
	if snap.Counters["record.sequencers"] == 0 {
		t.Error("record.sequencers is zero: the recorder did not publish its event counts")
	}
}

func TestScenarioMetricsPromToFile(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "metrics.prom")
	out := capture(t, func() error {
		return cmdScenario([]string{"-name", "exec01", "-metrics=prom", "-metrics-out", dest})
	})
	if strings.Contains(out, "--- metrics ---") {
		t.Error("-metrics-out should divert metrics away from stdout")
	}
	body, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE racereplay_record_executions_total counter",
		"racereplay_span_seconds{span=",
		"racereplay_classify_instances_total_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsOffByDefault(t *testing.T) {
	path := writeProg(t)
	out := capture(t, func() error { return cmdRun([]string{path}) })
	if strings.Contains(out, "--- metrics ---") {
		t.Errorf("metrics emitted without -metrics:\n%s", out)
	}
}

func TestMetricsFormatFlag(t *testing.T) {
	var f metricsFormatFlag
	for _, tc := range []struct{ in, want string }{
		{"true", "text"}, {"text", "text"}, {"json", "json"}, {"prom", "prom"}, {"false", ""},
	} {
		if err := f.Set(tc.in); err != nil {
			t.Fatalf("Set(%q): %v", tc.in, err)
		}
		if string(f) != tc.want {
			t.Errorf("Set(%q) = %q, want %q", tc.in, f, tc.want)
		}
	}
	if err := f.Set("yaml"); err == nil {
		t.Error("bogus format accepted")
	}
}

// TestCmdProfile drives the live-metrics mode end to end: the HTTP
// endpoints must serve while the suite runs, and the command must print
// the span-derived ladder when done.
func TestCmdProfile(t *testing.T) {
	served := make(chan error, 1)
	profileReady = func(addr string) {
		served <- func() error {
			// The probe races the suite run, so the snapshot may still be
			// empty; the endpoint contract (status, content type, and
			// namespaced families once data exists) is what we check.
			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/metrics status = %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				t.Errorf("/metrics content type = %q", ct)
			}
			body, _ := io.ReadAll(resp.Body)
			if len(body) > 0 && !strings.Contains(string(body), "racereplay_") {
				t.Errorf("unexpected /metrics body:\n%s", body)
			}
			jr, err := http.Get("http://" + addr + "/metrics.json")
			if err != nil {
				return err
			}
			defer jr.Body.Close()
			var snap racereplay.MetricsSnapshot
			return json.NewDecoder(jr.Body).Decode(&snap)
		}()
	}
	defer func() { profileReady = nil }()

	out := capture(t, func() error {
		return cmdProfile([]string{"-addr", "127.0.0.1:0", "-iterations", "1"})
	})
	if err := <-served; err != nil {
		t.Fatalf("metrics endpoints: %v", err)
	}
	for _, want := range []string{"profiling server on http://", "iteration 1/1 done", "spans:\n  suite "} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdDetectFlags: every detector publishes its stage into -metrics,
// lockset triage publishes the classifier's counters, and -triage
// without the lockset detector is rejected by name before any work.
func TestCmdDetectFlags(t *testing.T) {
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "t.rlog")
	capture(t, func() error { return cmdRecord([]string{"-seed", "6", "-o", logPath, prog}) })

	snap := extractJSON(t, capture(t, func() error {
		return cmdDetect([]string{"-detector", "vc", "-metrics=json", logPath})
	}))
	if snap.Counters["detect.executions"] != 1 || snap.Counters["detect.region_pairs_examined"] == 0 {
		t.Errorf("-detector vc: detect.* counters missing: %v", snap.Counters)
	}
	detectSpan := false
	for _, sp := range snap.Spans {
		detectSpan = detectSpan || sp.Name == "detect"
	}
	if !detectSpan {
		t.Errorf("-detector vc: no detect span in %+v", snap.Spans)
	}

	snap = extractJSON(t, capture(t, func() error {
		return cmdDetect([]string{"-detector", "lockset", "-triage", "-metrics=json", logPath})
	}))
	if snap.Counters["classify.executions"] == 0 || snap.Counters["classify.instances_total"] == 0 {
		t.Errorf("-detector lockset -triage: classify.* counters missing: %v", snap.Counters)
	}

	for _, args := range [][]string{{"-triage", logPath}, {"-detector", "vc", "-triage", logPath}} {
		var out strings.Builder
		old := stdout
		stdout = &out
		err := cmdDetect(args)
		stdout = old
		if err == nil || !strings.Contains(err.Error(), "-triage") {
			t.Errorf("%v: err = %v, want an error naming -triage", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed output:\n%s", args, out.String())
		}
	}
}
