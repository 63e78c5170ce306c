package report

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/workloads"
)

// BatchOptions picks the sections a batch report carries besides the
// summary, Table 1, the sections of the stages the run has (prediction,
// static), and the quarantine section.
type BatchOptions struct {
	// Count opens the report with "analyzed N recorded executions", as
	// the reports over a set of logs (analyze-dir, /v1/report) do.
	Count bool
	// Witnesses adds each execution's full prediction report — solver
	// statistics and every predicted-new race's witness schedule
	// (PredictedReport) — as the per-job service report does.
	Witnesses bool
	// Races adds the developer report of every merged race.
	Races bool
}

// Batch renders a batch run — the suite, a directory of logs, the
// service's jobs — in the one layout every batch report shares: the
// summary and Table 1 over the merged verdicts, the prediction and
// static stages' sections when the run has them, the sections o asks
// for, then the quarantine section.
func Batch(run *workloads.SuiteRun, o BatchOptions) string {
	var b strings.Builder
	if o.Count {
		fmt.Fprintf(&b, "analyzed %d recorded executions\n", len(run.Scenarios))
	}
	b.WriteString(Summary(run.Merged, SuiteTruth))
	b.WriteString("\n")
	b.WriteString(BuildTable1(run.Merged, SuiteTruth).Render())
	if run.Predict != nil {
		b.WriteString("\n")
		b.WriteString(PredictedSection{Suite: run.Predict}.Render())
	}
	if o.Witnesses {
		for _, sr := range run.Scenarios {
			if sr.Result.Predicted != nil {
				b.WriteString("\n")
				b.WriteString(PredictedReport(sr.Result.Predicted))
			}
		}
	}
	if run.Static != nil {
		b.WriteString("\n")
		b.WriteString(StaticSection{Suite: run.Static}.Render())
	}
	if o.Races {
		b.WriteString("\n")
		for _, r := range run.Merged.Races {
			b.WriteString(RaceReport(r, SuiteTruth))
		}
	}
	if len(run.Quarantined) > 0 {
		b.WriteString("\n")
		b.WriteString(QuarantineSection(run.Quarantined))
	}
	return b.String()
}

// QuarantineSection renders the degraded-input half of a batch report:
// one line per quarantined item, labeled with the scenario or file name
// and its typed error. An empty quarantine renders nothing, so callers
// can print it unconditionally.
func QuarantineSection(items []core.Quarantined) string {
	if len(items) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "quarantined: %d input(s) excluded from the analysis\n", len(items))
	for _, q := range items {
		fmt.Fprintf(&b, "  %s\n", q)
	}
	return b.String()
}
