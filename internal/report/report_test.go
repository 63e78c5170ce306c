package report

import (
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/hb"
	"repro/internal/workloads"
)

// suiteOnce caches the full suite analysis across the package's tests.
var suiteCache *workloads.SuiteRun

func suite(t *testing.T) *workloads.SuiteRun {
	t.Helper()
	if suiteCache == nil {
		run, err := workloads.RunSuite(workloads.SuiteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		suiteCache = run
	}
	return suiteCache
}

func TestTable1MatchesPaper(t *testing.T) {
	run := suite(t)
	t1 := BuildTable1(run.Merged, SuiteTruth)
	if t1.Total() != 68 {
		t.Errorf("total races = %d, want 68", t1.Total())
	}
	if t1.Unknown != 0 {
		t.Errorf("unknown races = %d", t1.Unknown)
	}
	if rb := t1.RB[classify.GroupNoStateChange]; rb != 32 {
		t.Errorf("NSC real-benign = %d, want 32", rb)
	}
	if rh := t1.RH[classify.GroupNoStateChange]; rh != 0 {
		t.Errorf("NSC real-harmful = %d, want 0", rh)
	}
	if rb, rh := t1.RB[classify.GroupStateChange], t1.RH[classify.GroupStateChange]; rb != 15 || rh != 2 {
		t.Errorf("SC = %d/%d, want 15/2", rb, rh)
	}
	if rb, rh := t1.RB[classify.GroupReplayFailure], t1.RH[classify.GroupReplayFailure]; rb != 14 || rh != 5 {
		t.Errorf("RF = %d/%d, want 14/5", rb, rh)
	}
	pbRB, pbRH := t1.PotentiallyBenign()
	phRB, phRH := t1.PotentiallyHarmful()
	if pbRB != 32 || pbRH != 0 || phRB != 29 || phRH != 7 {
		t.Errorf("columns = PB %d/%d PH %d/%d, want 32/0 29/7", pbRB, pbRH, phRB, phRH)
	}
	out := t1.Render()
	for _, want := range []string{"Table 1", "No State Change", "State Change", "Replay Failure", "Total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 render missing %q", want)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	run := suite(t)
	t2 := BuildTable2(run.Merged, SuiteTruth)
	want := map[workloads.Category]int{
		workloads.CatUserSync:       8,
		workloads.CatDoubleCheck:    3,
		workloads.CatBothValid:      5,
		workloads.CatRedundantWrite: 13,
		workloads.CatDisjointBits:   9,
		workloads.CatApprox:         23,
	}
	for cat, n := range want {
		if t2.Counts[cat] != n {
			t.Errorf("%v = %d, want %d", cat, t2.Counts[cat], n)
		}
	}
	out := t2.Render()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "Total") {
		t.Error("Table 2 render incomplete")
	}
	if !strings.Contains(out, "61") {
		t.Errorf("Table 2 total should be 61:\n%s", out)
	}
}

func TestFigure3OnlyBenignNoStateChange(t *testing.T) {
	run := suite(t)
	f := BuildFigure3(run.Merged, SuiteTruth)
	if len(f.Rows) != 32 {
		t.Errorf("figure 3 rows = %d, want 32", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.Harmful {
			t.Errorf("%s: harmful race in figure 3", r.Sites)
		}
		if r.Exposing != 0 {
			t.Errorf("%s: exposing instances in a potentially-benign race", r.Sites)
		}
		if r.Total < 1 {
			t.Errorf("%s: no instances", r.Sites)
		}
	}
	// Sorted descending by instance count.
	for i := 1; i < len(f.Rows); i++ {
		if f.Rows[i].Total > f.Rows[i-1].Total {
			t.Error("figure rows not sorted")
		}
	}
}

func TestFigure4HarmfulShape(t *testing.T) {
	run := suite(t)
	f := BuildFigure4(run.Merged, SuiteTruth)
	if len(f.Rows) != 7 {
		t.Fatalf("figure 4 rows = %d, want 7", len(f.Rows))
	}
	for _, r := range f.Rows {
		if !r.Harmful {
			t.Errorf("%s: benign race in figure 4", r.Sites)
		}
		if r.Exposing == 0 {
			t.Errorf("%s: harmful race with no exposing instance", r.Sites)
		}
		// The paper's key observation: only a fraction of instances
		// expose the bug.
		if r.Exposing > r.Total {
			t.Errorf("%s: exposing > total", r.Sites)
		}
	}
	// At least one harmful race should have non-exposing instances (the
	// "must see the race many times" effect).
	some := false
	for _, r := range f.Rows {
		if r.Exposing < r.Total {
			some = true
		}
	}
	if !some {
		t.Error("no harmful race had non-exposing instances")
	}
}

func TestFigure5Misclassified(t *testing.T) {
	run := suite(t)
	f := BuildFigure5(run.Merged, SuiteTruth)
	if len(f.Rows) != 29 {
		t.Errorf("figure 5 rows = %d, want 29", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.Harmful {
			t.Errorf("%s: harmful race in figure 5", r.Sites)
		}
		if r.Exposing == 0 {
			t.Errorf("%s: potentially-harmful race with no exposing instances", r.Sites)
		}
	}
}

func TestFigureRender(t *testing.T) {
	run := suite(t)
	for _, f := range []Figure{
		BuildFigure3(run.Merged, SuiteTruth),
		BuildFigure4(run.Merged, SuiteTruth),
		BuildFigure5(run.Merged, SuiteTruth),
	} {
		out := f.Render()
		if !strings.Contains(out, "Figure") || !strings.Contains(out, "#") {
			t.Errorf("figure render incomplete:\n%s", out)
		}
	}
	empty := Figure{Title: "Figure X"}
	if !strings.Contains(empty.Render(), "(no races)") {
		t.Error("empty figure should say so")
	}
}

func TestRaceReportContents(t *testing.T) {
	run := suite(t)
	var harmful *classify.RaceResult
	for _, r := range run.Merged.Races {
		if h, _, ok := SuiteTruth(r.Sites.A); ok && h {
			harmful = r
			break
		}
	}
	if harmful == nil {
		t.Fatal("no harmful race found")
	}
	out := RaceReport(harmful, SuiteTruth)
	for _, want := range []string{"race ", "verdict: potentially-harmful", "ground truth: HARMFUL", "instances:", "reproduce: racer scenario -name"} {
		if !strings.Contains(out, want) {
			t.Errorf("race report missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryHeadlines(t *testing.T) {
	run := suite(t)
	out := Summary(run.Merged, SuiteTruth)
	for _, want := range []string{
		"unique races: 68",
		"potentially benign: 32 (47% of all races)",
		"benign races filtered from triage: 32 of 61 (52%)",
		"reported for triage: 36 (7 real bugs among them)",
		"every real-harmful race was classified potentially harmful",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSuppressionFlowsIntoSummary(t *testing.T) {
	// Marking every potentially-harmful real-benign race as triaged-benign
	// leaves only the 7 real bugs reported.
	run := suite(t)
	db := classify.NewDB()
	for _, r := range run.Merged.Races {
		if h, _, ok := SuiteTruth(r.Sites.A); ok && !h && r.Verdict == classify.PotentiallyHarmful {
			db.MarkBenign(r.Sites, "triaged")
		}
	}
	run2, err := workloads.RunSuite(workloads.SuiteOptions{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	benign, harmful := run2.Merged.CountByVerdict()
	if harmful != 7 {
		t.Errorf("harmful after suppression = %d, want 7", harmful)
	}
	if benign != 32 {
		t.Errorf("benign = %d, want 32", benign)
	}
}

func TestTruthOracleUnknownSite(t *testing.T) {
	if _, _, known := SuiteTruth("otherprog:main"); known {
		t.Error("unknown site should not resolve")
	}
	t1 := BuildTable1(&classify.Classification{Races: []*classify.RaceResult{
		{Sites: hb.MakeSitePair("x:a", "x:b")},
	}}, SuiteTruth)
	if t1.Unknown != 1 {
		t.Error("unknown race not counted")
	}
}

func TestSummaryWarnsOnFilteredHarmfulRace(t *testing.T) {
	// Synthetic classification where a real-harmful race was classified
	// potentially benign: the summary must warn loudly.
	cls := &classify.Classification{Races: []*classify.RaceResult{
		{Sites: hb.MakeSitePair("suite:hrefc_rcld", "suite:hrefc_rcst"), Total: 2, NSC: 2},
	}}
	for _, r := range cls.Races {
		// recompute is unexported; build the verdict via counts.
		if r.SC == 0 && r.RF == 0 {
			r.Group = classify.GroupNoStateChange
			r.Verdict = classify.PotentiallyBenign
		}
	}
	out := Summary(cls, SuiteTruth)
	if !strings.Contains(out, "WARNING: 1 real-harmful races were filtered") {
		t.Errorf("summary missing warning:\n%s", out)
	}
}

func TestRaceReportSuppressedAndConfidence(t *testing.T) {
	r := &classify.RaceResult{
		Sites: hb.MakeSitePair("suite:red01_store", "suite:red01_store"),
		Total: 12, NSC: 12,
		Verdict: classify.PotentiallyBenign, Suppressed: true,
	}
	out := RaceReport(r, SuiteTruth)
	if !strings.Contains(out, "suppressed") {
		t.Error("suppressed note missing")
	}
	if !strings.Contains(out, "confidence: high") {
		t.Errorf("confidence missing:\n%s", out)
	}
}

func TestReproduceLineActuallyResolves(t *testing.T) {
	// Every reproduce line in every harmful race's report must name a
	// scenario FindScenario can resolve — otherwise the paper's "give the
	// developer a reproducible scenario" promise is broken.
	run := suite(t)
	for _, r := range run.Merged.Races {
		for _, line := range strings.Split(RaceReport(r, SuiteTruth), "\n") {
			_, cmd, ok := strings.Cut(line, "reproduce: ")
			if !ok {
				continue
			}
			name, _, _ := strings.Cut(strings.TrimPrefix(cmd, "racer scenario -name "), " ")
			if _, err := workloads.FindScenario(name); err != nil || !strings.HasPrefix(cmd, "racer scenario") {
				t.Fatalf("race %v: %q names no built-in scenario", r.Sites, cmd)
			}
		}
	}
}

func TestTable1RenderShowsUnknowns(t *testing.T) {
	t1 := BuildTable1(&classify.Classification{Races: []*classify.RaceResult{
		{Sites: hb.MakeSitePair("other:a", "other:b")},
	}}, SuiteTruth)
	if !strings.Contains(t1.Render(), "no ground-truth label") {
		t.Error("unknown races not surfaced in render")
	}
}

func TestMarkdownReport(t *testing.T) {
	run := suite(t)
	out := Markdown(run.Merged, SuiteTruth)
	for _, want := range []string{
		"68 unique races",
		"## Table 1", "| No state change (potentially benign) | 32 | 0 | 32 |",
		"## Table 2", "| Approximate Computation | 23 |",
		"## Figure 3", "## Figure 4", "## Figure 5",
		"instances per race:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}
