package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"

	racereplay "repro"
)

// capture redirects command output to a builder for the duration of f.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	var b strings.Builder
	old := stdout
	stdout = &b
	defer func() { stdout = old }()
	if err := f(); err != nil {
		t.Fatalf("command failed: %v\noutput so far:\n%s", err, b.String())
	}
	return b.String()
}

const testProg = `
.entry main
.word g 0
worker:
  ldi r2, g
  addi r3, r1, 5
wstore:
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
  ldi r2, g
  ld r1, [r2+0]
  sys print
  halt
`

func writeProg(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.rasm")
	if err := os.WriteFile(path, []byte(testProg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdRunAndPolicies(t *testing.T) {
	path := writeProg(t)
	for _, policy := range []string{"random", "rr", "pct"} {
		out := capture(t, func() error { return cmdRun([]string{"-seed", "3", "-policy", policy, path}) })
		if !strings.Contains(out, "thread 0: halted") {
			t.Errorf("policy %s: run output missing main thread:\n%s", policy, out)
		}
	}
	if err := cmdRun([]string{"-policy", "bogus", path}); err == nil {
		t.Error("bogus policy accepted")
	}
	if err := cmdRun([]string{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCmdRecordReplayDetectClassify(t *testing.T) {
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "run.rlog")

	out := capture(t, func() error { return cmdRecord([]string{"-seed", "6", "-o", logPath, prog}) })
	if !strings.Contains(out, "bits/instr") {
		t.Errorf("record output missing stats:\n%s", out)
	}
	if _, err := os.Stat(logPath); err != nil {
		t.Fatal("log not written")
	}

	out = capture(t, func() error { return cmdReplay([]string{logPath}) })
	if !strings.Contains(out, "sequencing regions") {
		t.Errorf("replay output:\n%s", out)
	}

	out = capture(t, func() error { return cmdDetect([]string{logPath}) })
	if !strings.Contains(out, "unique data races") {
		t.Errorf("detect output:\n%s", out)
	}

	out = capture(t, func() error { return cmdDetect([]string{"-detector", "vc", logPath}) })
	if !strings.Contains(out, "unique data races") {
		t.Errorf("vc detect output:\n%s", out)
	}

	out = capture(t, func() error { return cmdDetect([]string{"-detector", "lockset", logPath}) })
	if !strings.Contains(out, "lockset warnings") {
		t.Errorf("lockset output:\n%s", out)
	}
	if err := cmdDetect([]string{"-detector", "bogus", logPath}); err == nil {
		t.Error("bogus detector accepted")
	}

	out = capture(t, func() error { return cmdClassify([]string{logPath}) })
	if !strings.Contains(out, "potentially benign") {
		t.Errorf("classify output:\n%s", out)
	}
}

func TestCmdScenarioAndScenarios(t *testing.T) {
	out := capture(t, func() error { return cmdScenarios(nil) })
	if !strings.Contains(out, "exec01") || !strings.Contains(out, "browse") {
		t.Errorf("scenarios output:\n%s", out)
	}
	out = capture(t, func() error { return cmdScenario([]string{"-name", "exec01"}) })
	if !strings.Contains(out, "scenario exec01") || !strings.Contains(out, "races:") {
		t.Errorf("scenario output:\n%s", out)
	}
	if err := cmdScenario([]string{"-name", "nosuch"}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestCmdMarkBenignRoundTrip(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "db.json")
	out := capture(t, func() error {
		return cmdMarkBenign([]string{"-db", dbPath, "-race", "suite:a <-> suite:b", "-note", "triaged"})
	})
	if !strings.Contains(out, "marked") {
		t.Errorf("mark-benign output:\n%s", out)
	}
	data, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "suite:a") {
		t.Errorf("db missing mark:\n%s", data)
	}
	if err := cmdMarkBenign([]string{"-db", dbPath, "-race", "no-arrow"}); err == nil {
		t.Error("malformed race accepted")
	}
	if err := cmdMarkBenign([]string{"-db", dbPath}); err == nil {
		t.Error("missing race accepted")
	}
}

func TestCmdDisasm(t *testing.T) {
	prog := writeProg(t)
	out := capture(t, func() error { return cmdDisasm([]string{prog}) })
	for _, want := range []string{"worker:", "main:", "sys spawn", "halt"} {
		if !strings.Contains(out, want) {
			t.Errorf("disasm missing %q:\n%s", want, out)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]string{
		"random": "random", "rr": "round-robin", "round-robin": "round-robin", "pct": "pct", "": "random",
	} {
		p, err := parsePolicy(name)
		if err != nil || p.String() != want {
			t.Errorf("parsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := parsePolicy("zzz"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestCmdSuiteSummary(t *testing.T) {
	out := capture(t, func() error { return cmdSuite([]string{}) })
	for _, want := range []string{"unique races: 68", "Table 1", "reported for triage: 36 (7 real bugs among them)"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite output missing %q", want)
		}
	}
}

func TestCmdSuiteWithDBSuppression(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "db.json")
	capture(t, func() error {
		return cmdMarkBenign([]string{"-db", dbPath, "-race", "suite:actr01_ast <-> suite:actr01_ast"})
	})
	out := capture(t, func() error { return cmdSuite([]string{"-db", dbPath}) })
	if !strings.Contains(out, "unique races: 68") {
		t.Errorf("suite with db output:\n%s", out[:200])
	}
}

func TestCmdErrorsOnMissingFiles(t *testing.T) {
	for name, f := range map[string]func([]string) error{
		"replay":   cmdReplay,
		"detect":   cmdDetect,
		"classify": cmdClassify,
		"disasm":   cmdDisasm,
		"debug":    cmdDebug,
	} {
		if err := f([]string{"/nonexistent/file"}); err == nil {
			t.Errorf("%s accepted a missing file", name)
		}
		if err := f(nil); err == nil {
			t.Errorf("%s accepted no args", name)
		}
	}
	if err := cmdRecord([]string{"/nonexistent.rasm"}); err == nil {
		t.Error("record accepted a missing file")
	}
}

func TestCmdScenarioService(t *testing.T) {
	out := capture(t, func() error { return cmdScenario([]string{"-name", "service"}) })
	if !strings.Contains(out, "scenario service") || !strings.Contains(out, "0 potentially harmful") {
		t.Errorf("service scenario output:\n%s", out)
	}
}

func TestCmdRecordWithKeyFramesAndDump(t *testing.T) {
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "kf.rlog")
	out := capture(t, func() error {
		return cmdRecord([]string{"-keyframes", "4", "-o", logPath, prog})
	})
	if !strings.Contains(out, "recorded") {
		t.Errorf("record output:\n%s", out)
	}
	out = capture(t, func() error { return cmdReplay([]string{logPath}) })
	if !strings.Contains(out, "sequencing regions") {
		t.Errorf("keyframed log replay:\n%s", out)
	}
	out = capture(t, func() error { return cmdScenario([]string{"-name", "exec01", "-dump"}) })
	if !strings.Contains(out, ".entry main") || !strings.Contains(out, "sys spawn") {
		t.Errorf("dump output:\n%s", out[:200])
	}
}

func TestRecordSuiteThenAnalyzeDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "logs")
	out := capture(t, func() error { return cmdRecordSuite([]string{"-dir", dir}) })
	if !strings.Contains(out, "recorded 18 executions") {
		t.Errorf("record-suite output:\n%s", out)
	}
	out = capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir}) })
	for _, want := range []string{"analyzed 18 recorded executions", "unique races: 68", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze-dir output missing %q", want)
		}
	}
	if err := cmdAnalyzeDir([]string{"-dir", filepath.Join(dir, "empty")}); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestScenarioRaceFilterRoundTrip(t *testing.T) {
	// The reproduce line printed in race reports must actually work: find
	// a race in exec01, then re-run with -race and get exactly that race.
	var sites string
	out := capture(t, func() error { return cmdScenario([]string{"-name", "exec01"}) })
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "race ") {
			sites = strings.TrimPrefix(line, "race ")
			break
		}
	}
	if sites == "" {
		t.Fatal("no race found in exec01")
	}
	out = capture(t, func() error {
		return cmdScenario([]string{"-name", "exec01", "-race", sites})
	})
	if !strings.Contains(out, "race "+sites) {
		t.Errorf("filtered output missing the race:\n%s", out)
	}
	// Exactly one race block is printed.
	if strings.Count(out, "\nrace ") > 1 {
		t.Errorf("filter printed more than one race:\n%s", out)
	}
}

// TestClassifyReproduceLineRuns: the reproduce line racer classify
// prints must run and report its race, for a record-suite log and for a
// recording of a program file alike; neither names a built-in scenario.
func TestClassifyReproduceLineRuns(t *testing.T) {
	resetExit(t)
	dir := t.TempDir()
	capture(t, func() error { return cmdRecordSuite([]string{"-dir", dir}) })
	peterson := filepath.Join(dir, "peterson.rlog")
	capture(t, func() error {
		return cmdRecord([]string{"-o", peterson, filepath.Join("..", "..", "testdata", "programs", "peterson.rasm")})
	})
	commands := map[string]func([]string) error{"classify": cmdClassify, "scenario": cmdScenario}
	for _, logPath := range []string{filepath.Join(dir, "exec01-0.rlog"), peterson} {
		out := capture(t, func() error { return cmdClassify([]string{logPath}) })
		var sites, line string
		for _, l := range strings.Split(out, "\n") {
			if sites == "" && strings.HasPrefix(l, "race ") {
				sites = strings.TrimPrefix(l, "race ")
			}
			if _, cmd, ok := strings.Cut(l, "    reproduce: racer "); ok && line == "" {
				line = cmd
			}
		}
		if line == "" {
			t.Fatalf("%s: no reproduce line:\n%s", logPath, out)
		}
		// Split the command at spaces, keeping the quoted site pair whole.
		head, rest, _ := strings.Cut(line, "'")
		quoted, tail, _ := strings.Cut(rest, "'")
		args := append(append(strings.Fields(head), quoted), strings.Fields(tail)...)
		cmd := commands[args[0]]
		if cmd == nil {
			t.Fatalf("%s: reproduce line names racer %s", logPath, args[0])
		}
		out = capture(t, func() error { return cmd(args[1:]) })
		if !strings.Contains(out, "race "+sites) || strings.Count(out, "\nrace ") > 1 {
			t.Errorf("%s: racer %s printed:\n%s\nwant exactly the race %s", logPath, line, out, sites)
		}
	}
}

// TestFullTriageLoop is the paper's §1 story as one end-to-end CLI flow:
// record the product's test scenarios once; analyze offline; triage the
// potentially-harmful set, marking the tolerated races benign; re-analyze
// and get only the real bugs.
func TestFullTriageLoop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "logs")
	dbPath := filepath.Join(t.TempDir(), "races.json")

	capture(t, func() error { return cmdRecordSuite([]string{"-dir", dir}) })

	// First offline analysis: 36 potentially harmful races show up.
	out := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir}) })
	if !strings.Contains(out, "potentially benign: 32 (47% of all races)") {
		t.Fatalf("first analysis:\n%s", out)
	}
	if !strings.Contains(out, "reported for triage: 36 (7 real bugs among them)") {
		t.Fatalf("first analysis triage queue:\n%s", out)
	}

	// "Triage": mark the 29 tolerated races benign. (The test plays the
	// role of the domain expert using the ground truth.)
	run, err := racereplay.RunSuite(racereplay.SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, r := range run.Merged.Races {
		h, _, ok := report.SuiteTruth(r.Sites.A)
		if ok && !h && r.Verdict == racereplay.PotentiallyHarmful {
			capture(t, func() error {
				return cmdMarkBenign([]string{"-db", dbPath, "-race", r.Sites.String(), "-note", "triaged"})
			})
			marked++
		}
	}
	if marked != 29 {
		t.Fatalf("marked %d races, want 29", marked)
	}

	// Second analysis: only the 7 real bugs remain on the triage queue.
	out = capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir, "-db", dbPath}) })
	if !strings.Contains(out, "suppressed by the race database: 29") {
		t.Fatalf("second analysis missing suppression:\n%s", out)
	}
	if !strings.Contains(out, "reported for triage: 7 (7 real bugs among them)") {
		t.Fatalf("second analysis:\n%s", out)
	}
}

func TestCmdDetectLocksetTriage(t *testing.T) {
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "t.rlog")
	capture(t, func() error { return cmdRecord([]string{"-seed", "6", "-o", logPath, prog}) })
	out := capture(t, func() error {
		return cmdDetect([]string{"-detector", "lockset", "-triage", logPath})
	})
	if !strings.Contains(out, "replay triage of the lockset report") {
		t.Errorf("triage section missing:\n%s", out)
	}
}

// resetExit zeroes the exit status for one test and restores it after,
// so exit-code assertions don't leak between tests.
func resetExit(t *testing.T) {
	t.Helper()
	old := exitCode
	exitCode = 0
	t.Cleanup(func() { exitCode = old })
}

// corruptCorpus returns the repo's checked-in known-bad logs.
func corruptCorpus(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corrupt", "*.rlog"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corrupt corpus missing: %v (%d files)", err, len(paths))
	}
	return paths
}

// TestExitCodeContract: 0 clean, 1 findings, 2 invalid input.
func TestExitCodeContract(t *testing.T) {
	resetExit(t)
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "run.rlog")

	// Clean commands leave the status at 0.
	capture(t, func() error { return cmdRecord([]string{"-seed", "6", "-o", logPath, prog}) })
	capture(t, func() error { return cmdValidate([]string{logPath}) })
	if exitCode != 0 {
		t.Fatalf("clean run exit = %d, want 0", exitCode)
	}

	// Findings (the test program races) raise it to 1.
	capture(t, func() error { return cmdClassify([]string{logPath}) })
	if exitCode != 1 {
		t.Fatalf("findings exit = %d, want 1", exitCode)
	}

	// Invalid input beats findings: 2.
	capture(t, func() error { return cmdValidate([]string{corruptCorpus(t)[0]}) })
	if exitCode != 2 {
		t.Fatalf("invalid input exit = %d, want 2", exitCode)
	}
}

// TestCmdValidate: good logs report ok, corrupt logs report their typed
// error per file without aborting the sweep.
func TestCmdValidate(t *testing.T) {
	resetExit(t)
	prog := writeProg(t)
	logPath := filepath.Join(t.TempDir(), "ok.rlog")
	capture(t, func() error { return cmdRecord([]string{"-o", logPath, prog}) })

	files := append([]string{logPath}, corruptCorpus(t)...)
	out := capture(t, func() error { return cmdValidate(files) })
	if !strings.Contains(out, "ok.rlog: ok (") {
		t.Errorf("healthy log not reported ok:\n%s", out)
	}
	if !strings.Contains(out, "INVALID: trace: ") {
		t.Errorf("corrupt log missing typed error:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("%d of %d logs invalid", len(files)-1, len(files))) {
		t.Errorf("summary line wrong:\n%s", out)
	}
	if exitCode != 2 {
		t.Errorf("validate exit = %d, want 2", exitCode)
	}
	if err := cmdValidate(nil); err == nil {
		t.Error("validate with no files accepted")
	}
}

// TestCmdAnalyzeDirQuarantinesCorruptLogs is the acceptance scenario:
// a directory mixing healthy recordings with every known-bad log
// completes with partial results, lists each bad file in the quarantine
// section, and exits 2.
func TestCmdAnalyzeDirQuarantinesCorruptLogs(t *testing.T) {
	resetExit(t)
	dir := filepath.Join(t.TempDir(), "logs")
	capture(t, func() error { return cmdRecordSuite([]string{"-dir", dir}) })
	corrupt := corruptCorpus(t)
	for _, src := range corrupt {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "zz-"+filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir}) })
	if !strings.Contains(out, "analyzed 18 recorded executions") {
		t.Errorf("healthy logs not analyzed:\n%s", out[:200])
	}
	if !strings.Contains(out, fmt.Sprintf("quarantined: %d input(s)", len(corrupt))) {
		t.Errorf("quarantine section missing or wrong:\n%s", out)
	}
	for _, src := range corrupt {
		if !strings.Contains(out, "zz-"+filepath.Base(src)+": ") {
			t.Errorf("quarantine section missing %s:\n%s", filepath.Base(src), out)
		}
	}
	if exitCode != 2 {
		t.Errorf("quarantined batch exit = %d, want 2", exitCode)
	}
}

// TestCmdAnalyzeDirAllQuarantinedExits2 is the exit-code contract's edge
// case: a directory in which *every* input file is quarantined analyzed
// nothing, so the batch must exit 2 (invalid input) — never fall through
// to 0 ("clean") on the strength of an empty merged report.
func TestCmdAnalyzeDirAllQuarantinedExits2(t *testing.T) {
	resetExit(t)
	dir := filepath.Join(t.TempDir(), "logs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	corrupt := corruptCorpus(t)
	for _, src := range corrupt {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir}) })
	if !strings.Contains(out, "analyzed 0 recorded executions") {
		t.Errorf("fully-quarantined batch should analyze nothing:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("quarantined: %d input(s)", len(corrupt))) {
		t.Errorf("quarantine section missing or wrong:\n%s", out)
	}
	if exitCode != 2 {
		t.Errorf("fully-quarantined batch exit = %d, want 2 (invalid input)", exitCode)
	}
}

// TestCmdChaos: the CLI front end for the contract runner holds the
// contract over a quick corruption sweep and renders the summary.
func TestCmdChaos(t *testing.T) {
	resetExit(t)
	out := capture(t, func() error { return cmdChaos([]string{"-corruptions", "24", "-seed", "7"}) })
	if !strings.Contains(out, "chaos: 24 corruptions (seed 7)") {
		t.Errorf("chaos summary header:\n%s", out)
	}
	if !strings.Contains(out, "contract: 0 panics, 0 unbounded allocations, 0 untyped errors") {
		t.Errorf("chaos contract line:\n%s", out)
	}
}

// TestCountFlagsBelowOneAreRejected: a count flag below one is invalid
// input (exit 2, naming the flag), refused before any work: no output,
// no recording directory.
func TestCountFlagsBelowOneAreRejected(t *testing.T) {
	resetExit(t)
	dir := filepath.Join(t.TempDir(), "logs")
	for _, tc := range []struct {
		cmd  func([]string) error
		args []string
		flag string
	}{
		{cmdRecordSuite, []string{"-dir", dir, "-seeds", "0"}, "-seeds"},
		{cmdRecordSuite, []string{"-dir", dir, "-seeds", "-3"}, "-seeds"},
		{cmdSuite, []string{"-seeds", "0"}, "-seeds"},
		{cmdSuite, []string{"-seeds", "-3"}, "-seeds"},
		{cmdChaos, []string{"-corruptions", "0"}, "-corruptions"},
		{cmdChaos, []string{"-corruptions", "-5"}, "-corruptions"},
	} {
		var out strings.Builder
		old := stdout
		stdout = &out
		err := tc.cmd(tc.args)
		stdout = old
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed output:\n%s", tc.args, out.String())
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("record-suite created %s before rejecting its flags (stat err = %v)", dir, err)
	}
}

// TestCmdSuiteParallelOutputIsByteIdentical drives the full CLI path:
// the rendered suite report must not change with the worker count.
func TestCmdSuiteParallelOutputIsByteIdentical(t *testing.T) {
	serial := capture(t, func() error { return cmdSuite([]string{"-jobs", "1", "-seeds", "2", "-v"}) })
	parallel := capture(t, func() error { return cmdSuite([]string{"-jobs", "8", "-seeds", "2", "-v"}) })
	if serial != parallel {
		t.Fatalf("suite output diverges between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
}

// TestCmdRecordSuiteAndAnalyzeDirParallel round-trips the offline
// workflow with parallel recording and parallel analysis, checking that
// the analyze-dir report matches its serial rendering.
func TestCmdRecordSuiteAndAnalyzeDirParallel(t *testing.T) {
	dir := t.TempDir()
	recOut := capture(t, func() error {
		return cmdRecordSuite([]string{"-dir", dir, "-jobs", "8"})
	})
	if !strings.Contains(recOut, "recorded 18 executions") {
		t.Fatalf("record-suite output: %s", recOut)
	}
	serial := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir, "-jobs", "1"}) })
	parallel := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir, "-jobs", "8"}) })
	if serial != parallel {
		t.Fatalf("analyze-dir output diverges between -jobs 1 and -jobs 8")
	}
	if !strings.Contains(serial, "analyzed 18 recorded executions") {
		t.Errorf("analyze-dir output: %s", serial[:120])
	}
}

// TestSuiteMatchesAnalyzeDir: the live suite and analyze-dir over the
// same executions recorded to disk share one batch path, so their
// reports agree byte for byte once analyze-dir's count line is dropped.
func TestSuiteMatchesAnalyzeDir(t *testing.T) {
	resetExit(t)
	dir := t.TempDir()
	capture(t, func() error { return cmdRecordSuite([]string{"-dir", dir, "-seeds", "2"}) })
	suite := capture(t, func() error { return cmdSuite([]string{"-seeds", "2", "-static"}) })
	fromDir := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir, "-static"}) })
	count, rest, _ := strings.Cut(fromDir, "\n")
	if count != "analyzed 36 recorded executions" {
		t.Errorf("analyze-dir count line = %q", count)
	}
	if rest != suite {
		t.Fatalf("analyze-dir report differs from the suite's:\n--- suite\n%s\n--- analyze-dir\n%s", suite, rest)
	}
}

// TestAnalyzeDirDivergence mirrors CI's analyze-dir divergence step in
// its two legs. Worker count is scheduling, never semantics: one
// recorded directory analyzes to byte-identical reports and audit
// trails at -jobs 1 and -jobs 4, with the prediction and static stages
// on. The container format is transport, never semantics: the
// checked-in legacy v1 recordings analyze exactly as their v2 twins do,
// audit digests included.
func TestAnalyzeDirDivergence(t *testing.T) {
	resetExit(t)
	base := t.TempDir()
	analyze := func(dir, jobs, tag string) (string, string) {
		t.Helper()
		audit := filepath.Join(base, "audit-"+tag+".json")
		rep := capture(t, func() error {
			return cmdAnalyzeDir([]string{"-dir", dir, "-jobs", jobs, "-static", "-predict", "-audit-out", audit})
		})
		data, err := os.ReadFile(audit)
		if err != nil {
			t.Fatal(err)
		}
		return rep, string(data)
	}
	same := func(leg, rep1, rep2, audit1, audit2 string) {
		t.Helper()
		if rep1 != rep2 {
			t.Errorf("%s: analyze-dir reports diverge:\n--\n%s\n--\n%s", leg, rep1, rep2)
		}
		if audit1 != audit2 {
			t.Errorf("%s: audit trails diverge", leg)
		}
	}

	dir := filepath.Join(base, "logs")
	capture(t, func() error { return cmdRecordSuite([]string{"-dir", dir, "-seeds", "2"}) })
	serialRep, serialAudit := analyze(dir, "1", "jobs1")
	parRep, parAudit := analyze(dir, "4", "jobs4")
	same("jobs=1 vs jobs=4", serialRep, parRep, serialAudit, parAudit)

	legacy := filepath.Join("..", "..", "testdata", "legacy")
	v1Rep, v1Audit := analyze(filepath.Join(legacy, "v1"), "1", "v1")
	v2Rep, v2Audit := analyze(filepath.Join(legacy, "v2"), "1", "v2")
	same("legacy v1 vs v2", v1Rep, v2Rep, v1Audit, v2Audit)
	if !strings.Contains(v1Rep, "analyzed 2 recorded executions") {
		t.Errorf("legacy v1 directory analyzed as:\n%s", v1Rep)
	}
}

// TestProgramOfStripsOnlySeedSuffixes: analyze-dir groups a log under
// its file name minus the "-<k>" seed suffix record-suite writes, and
// only when that suffix is all digits; any other name is its own group.
func TestProgramOfStripsOnlySeedSuffixes(t *testing.T) {
	for file, want := range map[string]string{
		"exec01-0.rlog":   "exec01",
		"exec01-17.rlog":  "exec01",
		"run-1.rlog":      "run",
		"run-7days.rlog":  "run-7days",
		"run-2b.rlog":     "run-2b",
		"a-0x1f.rlog":     "a-0x1f",
		"a-+3.rlog":       "a-+3",
		"a- 3.rlog":       "a- 3",
		"a-.rlog":         "a-",
		"-3.rlog":         "-3",
		"plain.rlog":      "plain",
		"dash-name-2.log": "dash-name-2.log",
	} {
		if got := programOf(file); got != want {
			t.Errorf("programOf(%q) = %q, want %q", file, got, want)
		}
	}
}

// TestRecordSuiteByteTotal: the byte total record-suite prints is what
// it wrote — the summed sizes of its .rlog files.
func TestRecordSuiteByteTotal(t *testing.T) {
	dir := t.TempDir()
	out := capture(t, func() error { return cmdRecordSuite([]string{"-dir", dir, "-seeds", "2"}) })
	var n, instr, printed int
	if _, err := fmt.Sscanf(out, "recorded %d executions: %d instructions, %d bytes of logs", &n, &instr, &printed); err != nil {
		t.Fatalf("unparseable record-suite output %q: %v", out, err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.rlog"))
	if err != nil {
		t.Fatal(err)
	}
	written := 0
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		written += int(st.Size())
	}
	if n != 36 || len(files) != n {
		t.Fatalf("recorded %d executions into %d files, want 36", n, len(files))
	}
	if printed != written {
		t.Errorf("record-suite printed %d bytes, its %d files hold %d", printed, len(files), written)
	}
}
