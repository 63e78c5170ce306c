package workloads

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/static"
)

// ScenarioStatic is the static analysis and cross-validation of one
// static group: a base scenario, or the logs of one program in a
// directory (all seeds of it contribute dynamic evidence).
type ScenarioStatic struct {
	Name   string
	Report *static.Report
	Cross  *static.CrossResult
}

// SuiteStatic is the static cross-validation stage of a batch run.
type SuiteStatic struct {
	Scenarios []ScenarioStatic
	Matched   int
	Refuted   int
	Unmatched int
	Missed    int

	// Predicted-engine totals (meaningful only when HasPredicted: the
	// prediction stage supplied evidence for at least one scenario).
	HasPredicted  bool
	PredMatched   int
	PredRefuted   int
	PredUnmatched int
	PredMissed    int
}

// crossValidate is the static stage of a batch: the static analyzer
// runs once per static group (the executions of one program) and its
// candidates are joined against the dynamic evidence of every analyzed
// execution in the group. Groups fan out with sched.ForEachFork, so the
// section and the metrics are the same at every worker count.
func crossValidate(items []Item, runs []ScenarioRun, jobs int, reg *obs.Registry) *SuiteStatic {
	sp := reg.StartSpan("static")
	defer sp.End()

	byGroup := map[string][]*core.Result{}
	var order []string
	for _, sr := range runs {
		g := items[sr.Item].Group
		if _, ok := byGroup[g]; !ok {
			order = append(order, g)
		}
		byGroup[g] = append(byGroup[g], sr.Result)
	}

	out := &SuiteStatic{Scenarios: make([]ScenarioStatic, len(order))}
	sched.ForEachFork(reg, jobs, len(order), func(i int, reg *obs.Registry) {
		sc, results := &out.Scenarios[i], byGroup[order[i]]
		sc.Name = order[i]
		sc.Report = static.Analyze(results[0].Prog, reg)
		sc.Cross = static.CrossValidate(sc.Report, core.CollectEvidence(results), reg)
	})
	for _, sc := range out.Scenarios {
		if sc.Cross == nil {
			continue // the group's task panicked
		}
		out.Matched += sc.Cross.Matched
		out.Refuted += sc.Cross.Refuted
		out.Unmatched += sc.Cross.Unmatched
		out.Missed += len(sc.Cross.Missed)
		if sc.Cross.HasPredicted {
			out.HasPredicted = true
			out.PredMatched += sc.Cross.PredMatched
			out.PredRefuted += sc.Cross.PredRefuted
			out.PredUnmatched += sc.Cross.PredUnmatched
			out.PredMissed += len(sc.Cross.PredMissed)
		}
	}
	return out
}
