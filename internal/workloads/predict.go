package workloads

import (
	"repro/internal/classify"
	"repro/internal/core"
)

// ScenarioPredict summarizes the prediction stage of one execution:
// how many feasible candidates the solver emitted, how many the strict
// detector already saw (observed), how many required a reordering
// witness, and how many site pairs are new relative to the observed
// report.
type ScenarioPredict struct {
	Label      string
	Candidates int
	Observed   int
	Reordered  int
	New        int
}

// SuitePredict aggregates the prediction stage across a batch: one row
// per analyzed execution plus the merged classification of every
// predicted-new race (races the observed interleavings never
// exhibited, judged by the same dual-order replay as everything else).
type SuitePredict struct {
	Window    int
	Scenarios []ScenarioPredict

	Candidates int
	Observed   int
	Reordered  int

	// Merged is the cross-execution verdict set for predicted-new races
	// only; observed races stay in the run's main classification.
	Merged *classify.Classification
}

// BuildSuitePredict folds per-execution prediction results into the
// suite-level section. labels[i] names results[i]; nil results
// (quarantined executions) and results analyzed without the prediction
// stage are skipped. Returns nil when no execution carries a prediction
// — the section then renders as "stage not run".
func BuildSuitePredict(labels []string, results []*core.Result) *SuitePredict {
	out := &SuitePredict{}
	var parts []*classify.Classification
	any := false
	for i, res := range results {
		if res == nil || res.Predicted == nil {
			continue
		}
		any = true
		p := res.Predicted
		row := ScenarioPredict{
			Label:      labels[i],
			Candidates: len(p.Report.Candidates),
			New:        len(p.NewRaces.Races),
		}
		for _, c := range p.Report.Candidates {
			if c.Observed {
				row.Observed++
			}
		}
		row.Reordered = row.Candidates - row.Observed
		out.Window = p.Report.Window
		out.Scenarios = append(out.Scenarios, row)
		out.Candidates += row.Candidates
		out.Observed += row.Observed
		out.Reordered += row.Reordered
		parts = append(parts, p.Classification)
	}
	if !any {
		return nil
	}
	out.Merged = classify.Merge(parts...)
	return out
}
