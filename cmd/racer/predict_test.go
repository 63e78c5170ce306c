package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCmdPredictFindsUnobservedRace pins the prediction payoff case:
// exec17's lock-separated pair never overlaps in the recorded schedule,
// so the strict detector stays silent, but the window solver proves a
// feasible reordering and replay classifies it potentially harmful.
func TestCmdPredictFindsUnobservedRace(t *testing.T) {
	resetExit(t)
	out := capture(t, func() error { return cmdPredict([]string{"-scenario", "exec17"}) })
	for _, want := range []string{
		"suite:huaf_fst <-> suite:huaf_uld",
		"[potentially-harmful]",
		"witness (reordered): regions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("predict exec17 output missing %q:\n%s", want, out)
		}
	}
	if exitCode != 1 {
		t.Errorf("predicted-harmful exit = %d, want 1", exitCode)
	}
}

// TestCmdPredictOnLogAndProgram covers the other two input modes: a
// recorded .rlog and a bare program file.
func TestCmdPredictOnLogAndProgram(t *testing.T) {
	resetExit(t)
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "p.rlog")
	capture(t, func() error { return cmdRecord([]string{"-seed", "6", "-o", logPath, prog}) })
	out := capture(t, func() error { return cmdPredict([]string{logPath}) })
	if !strings.Contains(out, "feasible candidate pairs") {
		t.Errorf("predict on log missing candidate stats:\n%s", out)
	}
	out = capture(t, func() error { return cmdPredict([]string{"-seed", "6", prog}) })
	if !strings.Contains(out, "observed:") || !strings.Contains(out, "feasible candidate pairs") {
		t.Errorf("predict on program:\n%s", out)
	}
}

// TestCmdPredictRejectsNegativeWindow: a negative -window is invalid
// input (exit 2, naming the flag), not a silent run at the default.
func TestCmdPredictRejectsNegativeWindow(t *testing.T) {
	resetExit(t)
	var out strings.Builder
	old := stdout
	stdout = &out
	defer func() { stdout = old }()
	err := cmdPredict([]string{"-window", "-5", "-scenario", "exec01"})
	if err == nil || !strings.Contains(err.Error(), "-window") {
		t.Fatalf("predict -window -5: err = %v, want an error naming -window; output:\n%s", err, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("predict -window -5 printed a report:\n%s", out.String())
	}
}

// TestCmdSuitePredictDeterministicAcrossJobs: the acceptance invariant —
// suite -predict output is byte-identical at -jobs 1 and -jobs 8, and
// the predicted section carries the exec17 reordered race.
func TestCmdSuitePredictDeterministicAcrossJobs(t *testing.T) {
	resetExit(t)
	serial := capture(t, func() error {
		return cmdSuite([]string{"-predict", "-seeds", "2", "-jobs", "1"})
	})
	parallel := capture(t, func() error {
		return cmdSuite([]string{"-predict", "-seeds", "2", "-jobs", "8"})
	})
	if serial != parallel {
		t.Fatalf("suite -predict diverges between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", serial, parallel)
	}
	for _, want := range []string{
		"Predicted races (lockset + weak-HB reordering, classified by replay)",
		"suite:huaf_fst <-> suite:huaf_uld",
	} {
		if !strings.Contains(serial, want) {
			t.Errorf("suite -predict output missing %q", want)
		}
	}
}

// TestCmdSuitePredictAuditMarksPredicted: the audit trail distinguishes
// second-pass (predicted) races from observed ones, identically at any
// worker count.
func TestCmdSuitePredictAuditMarksPredicted(t *testing.T) {
	resetExit(t)
	dir := t.TempDir()
	p1, p8 := filepath.Join(dir, "a1.json"), filepath.Join(dir, "a8.json")
	capture(t, func() error {
		return cmdSuite([]string{"-predict", "-seeds", "1", "-jobs", "1", "-audit-out", p1})
	})
	capture(t, func() error {
		return cmdSuite([]string{"-predict", "-seeds", "1", "-jobs", "8", "-audit-out", p8})
	})
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := os.ReadFile(p8)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b8) {
		t.Fatal("audit JSON diverges between -jobs 1 and -jobs 8 under -predict")
	}
	if !strings.Contains(string(b1), `"predicted": true`) {
		t.Error("audit trail has no predicted-race provenance")
	}
}

// TestCmdLintExitCodes pins the lint half of the exit-code contract:
// 0 clean, 1 candidates found, 2 invalid input — including programs the
// machine itself would refuse to run, which previously linted "clean".
func TestCmdLintExitCodes(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.rasm")
	if err := os.WriteFile(clean, []byte(".entry main\nmain:\n  halt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.rasm")
	if err := os.WriteFile(empty, []byte("\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	racy := writeProg(t)

	resetExit(t)
	capture(t, func() error { return cmdLint([]string{clean}) })
	if exitCode != 0 {
		t.Fatalf("clean lint exit = %d, want 0", exitCode)
	}

	exitCode = 0
	capture(t, func() error { return cmdLint([]string{racy}) })
	if exitCode != 1 {
		t.Fatalf("candidate lint exit = %d, want 1", exitCode)
	}

	// An empty program lints vacuously clean but can never execute:
	// that is invalid input, not a clean bill of health.
	exitCode = 0
	out := capture(t, func() error { return cmdLint([]string{empty}) })
	if exitCode != 2 {
		t.Fatalf("empty-program lint exit = %d, want 2", exitCode)
	}
	if !strings.Contains(out, "invalid input") {
		t.Errorf("empty-program lint output:\n%s", out)
	}

	// A bad file in a batch escalates to 2 but the rest still lints.
	exitCode = 0
	out = capture(t, func() error { return cmdLint([]string{racy, empty}) })
	if exitCode != 2 {
		t.Fatalf("mixed batch lint exit = %d, want 2", exitCode)
	}
	if !strings.Contains(out, "wstore") {
		t.Errorf("mixed batch lost the valid file's findings:\n%s", out)
	}
}
