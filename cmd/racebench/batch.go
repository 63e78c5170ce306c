package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/progen"
	"repro/internal/record"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// seedStride separates the scheduler seeds of one workload seed from the
// next; workload seed 1 reproduces `racer suite -seeds N` exactly.
const seedStride = 1_000_003

// batch is the `racer analyze-dir` path over in-memory containers, and
// one batch is the unit of work of suite-triage and predict-distinct:
// decode every container on the worker pool, analyze them with
// core.AnalyzeLogs and merge the verdicts. Rendering the report is left
// to the checks, outside the clock; the traced run times it as the
// report layer.
type batch struct {
	containers [][]byte
	labels     []string
	execs      []item
	predict    bool
	bits       uint64
	instr      uint64
	check      func(out *batchOutput) error
}

type batchOutput struct {
	merged  *classify.Classification
	results []*core.Result
	err     error
}

// recordContainers records every item and keeps its v2 container.
func (b *batch) recordContainers() error {
	for _, it := range b.execs {
		log, _, err := record.Run(it.prog, it.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", it.label, err)
		}
		data := trace.MarshalV2(log)
		b.containers = append(b.containers, data)
		b.labels = append(b.labels, it.label)
		b.bits += 8 * uint64(len(data))
		b.instr += log.Instructions()
	}
	return nil
}

// run analyzes the batch once at the given worker count.
func (b *batch) run(reg *obs.Registry, workers int, noMemo bool) *batchOutput {
	out := &batchOutput{}
	logs := make([]*trace.Log, len(b.containers))
	errs := make([]error, len(b.containers))
	sp := reg.StartSpan("decode")
	sched.ForEach(workers, len(b.containers), func(i int) {
		log, _, err := core.DecodeLogOpts(b.containers[i], core.DecodeOptions{Salvage: true, Metrics: reg})
		if err == nil {
			err = log.Validate()
		}
		logs[i], errs[i] = log, err
	})
	sp.End()
	for i, err := range errs {
		if err != nil {
			out.err = fmt.Errorf("%s: decode: %w", b.labels[i], err)
			return out
		}
	}
	sp = reg.StartSpan("analyze")
	results, quarantined := core.AnalyzeLogsInstrumented(logs, func(i int) classify.Options {
		return classify.Options{Scenario: b.labels[i], Seed: logs[i].Seed, NoMemo: noMemo, Predict: b.predict}
	}, workers, reg)
	sp.End()
	if len(quarantined) > 0 {
		out.err = fmt.Errorf("%d executions quarantined, first %v", len(quarantined), quarantined[0])
		return out
	}
	sp = reg.StartSpan("merge")
	parts := make([]*classify.Classification, len(results))
	for i, res := range results {
		parts[i] = res.Classification
	}
	out.results = results
	out.merged = classify.Merge(parts...)
	sp.End()
	return out
}

// renderMerged is the verdict report analyze-dir prints and serve's
// /v1/report serves, before any quarantine section.
func renderMerged(analyzed int, merged *classify.Classification) string {
	var s strings.Builder
	fmt.Fprintf(&s, "analyzed %d recorded executions\n", analyzed)
	s.WriteString(report.Summary(merged, report.SuiteTruth))
	s.WriteString("\n")
	s.WriteString(report.BuildTable1(merged, report.SuiteTruth).Render())
	return s.String()
}

func (b *batch) warm() *measurement { return b.measure(time.Time{}, nil) }

func (b *batch) measure(deadline time.Time, reg *obs.Registry) *measurement {
	return closedLoop(deadline, func() (int, func() error) {
		sp := reg.StartSpan("batch")
		out := b.run(reg, jobs, false)
		sp.End()
		return len(b.containers), func() error {
			if out.err != nil {
				return out.err
			}
			return b.check(out)
		}
	})
}

func (b *batch) items() []item                 { return b.execs }
func (b *batch) logSize() (bits, instr uint64) { return b.bits, b.instr }
func (b *batch) close()                        {}

// scenarioItems lists scenarios under seeds scheduler seeds each,
// labelled the way `racer record-suite` names its files.
func scenarioItems(seed int64, scenarios []workloads.Scenario, seeds int) ([]item, error) {
	var out []item
	for _, s := range scenarios {
		prog, err := s.Program()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		for k := 0; k < seeds; k++ {
			cfg := s.Config()
			cfg.Seed = s.Seed + int64(7777*k) + (seed-1)*seedStride
			out = append(out, item{label: fmt.Sprintf("%s#%d.rlog", s.Name, k), prog: prog, cfg: cfg})
		}
	}
	return out, nil
}

// setupSuiteTriage records the suite and checks every batch against the
// paper's Table 1, a census taken from the templates' declared ground
// truth rather than from anything the pipeline computes.
func setupSuiteTriage(e *env) (instance, error) {
	execs, err := scenarioItems(e.seed, workloads.Scenarios(), e.scale.SuiteSeeds)
	if err != nil {
		return nil, err
	}
	b := &batch{execs: execs, check: func(out *batchOutput) error { return checkCensus(out.merged) }}
	return b, b.recordContainers()
}

// checkCensus compares a merged suite classification with Table 1: 68
// races, real-benign/real-harmful 32/0 with no state change, 15/2 with a
// state change and 14/5 with a replay failure. No real-harmful race may
// be called potentially benign.
func checkCensus(c *classify.Classification) error {
	var rb, rh [3]int
	for _, r := range c.Races {
		tm := workloads.TemplateOfSite(r.Sites.A)
		if tm == nil {
			return fmt.Errorf("race %s matches no suite template", r.Sites)
		}
		if tm.RealHarmful {
			if r.Verdict == classify.PotentiallyBenign {
				return fmt.Errorf("real-harmful race %s called potentially benign", r.Sites)
			}
			rh[r.Group]++
		} else {
			rb[r.Group]++
		}
	}
	if len(c.Races) != 68 || rb != [3]int{32, 15, 14} || rh != [3]int{0, 2, 5} {
		return fmt.Errorf("census %d races, real-benign %v, real-harmful %v; want 68, [32 15 14], [0 2 5]",
			len(c.Races), rb, rh)
	}
	return nil
}

// setupPredictDistinct generates distinct programs from the seed, records
// them, and computes the reference report serially with the memo off.
// Every batch must reproduce that reference byte for byte.
func setupPredictDistinct(e *env) (instance, error) {
	rng := rand.New(rand.NewSource(e.seed))
	seen := map[string]bool{}
	b := &batch{predict: true}
	for len(b.execs) < e.scale.Programs {
		src := progen.Generate(rng, shape(len(b.execs)))
		if seen[src] {
			continue
		}
		seen[src] = true
		name := fmt.Sprintf("gen%03d", len(b.execs))
		prog, err := asm.Assemble(name, src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		b.execs = append(b.execs, item{label: name + ".rlog", prog: prog, cfg: machine.Config{Seed: rng.Int63()}})
	}
	if err := b.recordContainers(); err != nil {
		return nil, err
	}
	ref := b.run(nil, 1, true)
	if ref.err != nil {
		return nil, fmt.Errorf("reference: %w", ref.err)
	}
	want := b.verdicts(ref)
	b.check = func(out *batchOutput) error {
		if b.verdicts(out) != want {
			return fmt.Errorf("report differs from the serial no-memo reference")
		}
		return nil
	}
	return b, nil
}

// shape spreads the generated programs evenly over progen.Random's shape
// space (threads, globals, blocks, loop bound, instruction mix), so the
// work in a batch barely moves with the seed, which picks every program's
// code.
func shape(i int) progen.Config {
	return progen.Config{
		Workers: 1 + i%4, Blocks: 1 + i/4%4, MaxIters: 1 + i/16%12, Globals: 1 + i%5,
		UseLocks: i/2%2 == 0, UseAtomic: i/3%2 == 0, UseRMW: i/5%2 == 0, UseSysnop: i/7%2 == 0,
	}
}

// verdicts renders a batch's merged verdicts race by race (group,
// verdict and instance outcomes) followed by analyze-dir's
// predicted-race section.
func (b *batch) verdicts(out *batchOutput) string {
	var s strings.Builder
	for _, r := range out.merged.Races {
		fmt.Fprintf(&s, "%s %v %v total=%d nsc=%d sc=%d rf=%d\n", r.Sites, r.Group, r.Verdict, r.Total, r.NSC, r.SC, r.RF)
	}
	s.WriteString(report.PredictedSection{Suite: workloads.BuildSuitePredict(b.labels, out.results)}.Render())
	return s.String()
}
