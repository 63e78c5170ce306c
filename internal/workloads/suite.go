package workloads

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ScenarioRun is one analyzed execution of a batch.
type ScenarioRun struct {
	// Item is the execution's position in the batch's items.
	Item int
	// Scenario is the built-in scenario RunSuite recorded (zero for
	// executions analyzed from stored logs).
	Scenario Scenario
	Result   *core.Result
}

// SuiteRun is the analysis of a batch of executions: the 18-execution
// suite (RunSuite) or a directory of stored logs (AnalyzeBatch).
type SuiteRun struct {
	// Scenarios lists the analyzed executions in batch order;
	// quarantined ones are left out.
	Scenarios []ScenarioRun
	Merged    *classify.Classification
	// Quarantined lists the items that failed — a program that would
	// not build, a recording that died, a log that would not decode or
	// replay, or an analysis that panicked. The run completes with the
	// healthy items; quarantined items carry their label and error for
	// the report's quarantine section.
	Quarantined []core.Quarantined
	// Static is the static cross-validation stage (nil unless
	// SuiteOptions.Static was set): per-program lint reports joined
	// against the dynamic evidence above.
	Static *SuiteStatic
	// Audit is the verdict-provenance trail (nil unless
	// SuiteOptions.Audit was set): one audit.Execution per item, in
	// batch order, quarantined items included. The file is a
	// deterministic function of the inputs — byte-identical at every
	// Jobs count.
	Audit *audit.File
	// Predict is the prediction stage's aggregation (nil unless
	// SuiteOptions.Predict was set; empty when no execution reached the
	// stage): per-execution candidate counts and the merged
	// classification of predicted-new races.
	Predict *SuitePredict
}

// Harmful reports whether the run hands developers a potentially
// harmful race, observed or predicted — the batch commands' exit 1.
func (r *SuiteRun) Harmful() bool {
	if _, harmful := r.Merged.CountByVerdict(); harmful > 0 {
		return true
	}
	if r.Predict != nil && r.Predict.Merged != nil {
		_, harmful := r.Predict.Merged.CountByVerdict()
		return harmful > 0
	}
	return false
}

// SuiteOptions configures RunSuite, and AnalyzeBatch apart from the
// recording knob (Seeds).
type SuiteOptions struct {
	// DB, when non-nil, suppresses races a developer already marked
	// benign.
	DB *classify.DB
	// Seeds is the number of scheduler seeds per scenario (the base
	// seed plus fixed offsets); values below 1 mean 1.
	Seeds int
	// Jobs bounds the workers for the offline half (replay, detect,
	// classify, static). Values below 1 mean GOMAXPROCS; 1 runs
	// serially. The merged output is byte-identical at every worker
	// count.
	Jobs int
	// Registry, when non-nil, receives pipeline metrics: the merged
	// "suite/record|replay|detect|classify" span tree, every
	// stage's counters, and the batch's sched.* metrics.
	Registry *obs.Registry
	// Static adds the static cross-validation stage: every base scenario
	// is lint-analyzed ahead of execution and its candidates joined
	// against the dynamic races and verdicts (SuiteRun.Static).
	Static bool
	// Audit assembles the verdict-provenance trail into SuiteRun.Audit:
	// per execution, the input log's content hash and per-race replay
	// evidence (live-in fingerprints, both orders' outcomes, canonical
	// cache attribution). An audited batch also shares one dual-order
	// replay cache across its executions, whose fingerprints the audit
	// computes anyway; an un-audited one replays every instance. Output
	// is byte-identical either way.
	Audit bool
	// Predict adds the prediction stage to every analyzed execution:
	// feasible reorderings of the recorded schedule that would race are
	// proposed, classified by the same dual-order replay, and aggregated
	// into SuiteRun.Predict.
	Predict bool
}

// SuiteScenarios lists the suite's executions under seeds scheduler
// seeds each: every scenario of Scenarios, seeds times in a row, copy k
// (entry i has k = i % seeds) seeded a fixed stride k times past the
// base seed. Names stay the base scenario's, so a caller labels copy k
// itself. It is the one seed rule of the suite, record-suite, and
// their tests.
func SuiteScenarios(seeds int) []Scenario {
	var out []Scenario
	for _, base := range Scenarios() {
		for k := 0; k < seeds; k++ {
			s := base
			s.Seed = base.Seed + int64(7777*k)
			out = append(out, s)
		}
	}
	return out
}

// RunSuite records, replays, detects, and classifies every scenario ×
// seed, then merges the per-execution classifications into the
// cross-execution per-race verdicts of §5.2.1. More seeds per scenario is
// the paper's coverage lever: "the more the number of test cases
// analyzed, the more likely harmful data races will be discovered" (§1) —
// and the more instances accumulate per race, the greater the confidence
// in a potentially-benign verdict (§4.3).
//
// With opts.Registry set, every scenario's stages run under the merged
// "suite/record|replay|detect|classify" spans.
//
// Recording is the online half of the pipeline and stays serial —
// the paper's premise is that the production run only pays for logging —
// and everything after it is AnalyzeBatch over the recorded logs.
//
// The run has quarantine semantics: a scenario×seed that fails at any
// stage is skipped with its error recorded in SuiteRun.Quarantined (and
// counted on robust.quarantined), and the rest of the suite completes.
// The error return is reserved for failures that leave nothing to
// report.
func RunSuite(opts SuiteOptions) (*SuiteRun, error) {
	seeds := max(opts.Seeds, 1)
	reg := opts.Registry
	suite := reg.StartSpan("suite")
	defer suite.End()

	scenarios := SuiteScenarios(seeds)
	items := make([]Item, len(scenarios))
	machines := make([]*machine.Result, len(scenarios))
	var prog *isa.Program
	var progErr error
	for i, s := range scenarios {
		if i%seeds == 0 {
			// One assembly per scenario: the program does not depend on
			// the seed, only the machine configuration does.
			prog, progErr = s.Program()
		}
		it := &items[i]
		it.Label, it.Group, it.Seed = s.Name, s.Name, s.Seed
		if seeds > 1 {
			it.Label = fmt.Sprintf("%s#%d", s.Name, i%seeds)
		}
		// A recording that fails — or panics — quarantines its item.
		it.Err = sched.Guard(reg, func() error {
			if progErr != nil {
				return fmt.Errorf("program: %w", progErr)
			}
			log, mres, err := record.RunInstrumented(prog, s.Config(), reg)
			if err != nil {
				return fmt.Errorf("record: %w", err)
			}
			it.Log, machines[i] = log, mres
			return nil
		})
	}
	run := AnalyzeBatch(items, opts)
	for i := range run.Scenarios {
		sr := &run.Scenarios[i]
		sr.Scenario = scenarios[sr.Item]
		sr.Result.Machine = machines[sr.Item]
	}
	return run, nil
}

// Item is one execution of a batch: its label (a scenario#seed or a
// file name), its static group (the executions of one program share
// it, and the static stage pools their evidence), its scheduler seed,
// and either its log or the error that quarantined it before analysis.
type Item struct {
	Label string
	Group string
	Seed  int64
	Log   *trace.Log
	Err   error
}

// AnalyzeBatch does everything a batch needs after its logs are
// recorded or decoded: it quarantines the items that carry an error,
// replays, detects, and classifies the rest across opts.Jobs workers
// (core.AnalyzeLogsInstrumented), assembles the audit trail, merges
// the verdicts across executions, and runs the prediction and static
// stages opts asks for. The suite and analyze-dir both come through
// here; results land in item order, so the run is identical at every
// worker count.
func AnalyzeBatch(items []Item, opts SuiteOptions) *SuiteRun {
	reg := opts.Registry
	run := &SuiteRun{}
	// Audit envelopes, one per item; classify fills each healthy item's
	// Races through a pointer to its envelope.
	var audits []audit.Execution
	if opts.Audit {
		audits = make([]audit.Execution, len(items))
	}
	var logs []*trace.Log
	var healthy []int // item index of logs[k]
	for i, it := range items {
		var ae *audit.Execution
		if opts.Audit {
			ae = &audits[i]
			*ae = audit.Execution{Scenario: it.Label, Seed: it.Seed}
		}
		if it.Err != nil {
			run.Quarantined = append(run.Quarantined, core.Quarantine(reg, i, it.Label, it.Err))
			if ae != nil {
				ae.Quarantined = it.Err.Error()
			}
			continue
		}
		if ae != nil {
			ae.LogSHA256 = core.LogDigest(it.Log)
		}
		logs = append(logs, it.Log)
		healthy = append(healthy, i)
	}

	results, quarantined := core.AnalyzeLogsInstrumented(logs, func(k int) classify.Options {
		it := items[healthy[k]]
		o := classify.Options{
			Scenario: it.Label,
			Seed:     it.Seed,
			DB:       opts.DB,
			Predict:  opts.Predict,
		}
		if opts.Audit {
			o.Audit = &audits[healthy[k]]
		}
		return o
	}, opts.Jobs, reg)
	for _, q := range quarantined {
		q.Index = healthy[q.Index]
		run.Quarantined = append(run.Quarantined, q)
		if opts.Audit {
			// Analysis-time quarantines supersede whatever classify may
			// have started writing before the failure.
			audits[q.Index].Quarantined = q.Err.Error()
			audits[q.Index].Races = nil
		}
	}
	if opts.Audit {
		run.Audit = audit.NewFile()
		run.Audit.Executions = audits
		run.Audit.DeriveCacheHits()
	}

	labels := make([]string, len(results))
	var parts []*classify.Classification
	for k, res := range results {
		labels[k] = items[healthy[k]].Label
		if res != nil {
			run.Scenarios = append(run.Scenarios, ScenarioRun{Item: healthy[k], Result: res})
			parts = append(parts, res.Classification)
		}
	}
	run.Merged = classify.Merge(parts...)
	if opts.Predict {
		run.Predict = BuildSuitePredict(labels, results)
		if run.Predict == nil {
			run.Predict = &SuitePredict{} // the stage ran on nothing
		}
	}
	if opts.Static {
		run.Static = crossValidate(items, run.Scenarios, opts.Jobs, reg)
	}
	publishSuiteMetrics(reg, run)
	return run
}

// publishSuiteMetrics records the merged batch verdicts (report.* is
// the fifth pipeline stage: what the tool hands to developers).
func publishSuiteMetrics(reg *obs.Registry, run *SuiteRun) {
	if reg == nil {
		return
	}
	benign, harmful := run.Merged.CountByVerdict()
	reg.Counter("report.scenarios").Add(uint64(len(run.Scenarios)))
	reg.Counter("report.unique_races").Add(uint64(len(run.Merged.Races)))
	reg.Counter("report.potentially_benign").Add(uint64(benign))
	reg.Counter("report.potentially_harmful").Add(uint64(harmful))
	reg.Counter("report.instances").Add(uint64(run.Merged.TotalInstances()))
}

// FindScenario returns the scenario with the given name, or an error.
func FindScenario(name string) (Scenario, error) {
	if name == "browse" {
		return BrowseScenario(), nil
	}
	if name == "service" {
		return ServiceScenario(), nil
	}
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("workloads: unknown scenario %q", name)
}
