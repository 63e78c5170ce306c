// Package classify turns per-instance dual-order replay outcomes into the
// paper's race classification (§4.3, §5.2).
//
// Every dynamic instance of a race is analyzed by the virtual processor;
// a unique (static) race is classified No-State-Change only if every one
// of its instances is No-State-Change, State-Change if any instance is,
// and Replay-Failure otherwise. No-State-Change races are *potentially
// benign* and everything else is *potentially harmful* — the set handed
// to developers for triage.
//
// The package also carries the triage workflow the paper describes (§1):
// a persistent race database in which a developer can mark a race benign
// after manual inspection, suppressing it from future reports.
package classify

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/vproc"
)

// Group is the Table 1 row a race falls into.
type Group int

const (
	GroupNoStateChange Group = iota
	GroupStateChange
	GroupReplayFailure
)

func (g Group) String() string {
	switch g {
	case GroupNoStateChange:
		return "no-state-change"
	case GroupStateChange:
		return "state-change"
	case GroupReplayFailure:
		return "replay-failure"
	}
	return fmt.Sprintf("group(%d)", int(g))
}

// Verdict is the automatic classification handed to developers.
type Verdict int

const (
	PotentiallyBenign Verdict = iota
	PotentiallyHarmful
)

func (v Verdict) String() string {
	if v == PotentiallyBenign {
		return "potentially-benign"
	}
	return "potentially-harmful"
}

// InstanceSample is one analyzed instance kept for the race report: it
// pins down the exact replay coordinates a developer needs to reproduce
// both orders (§4.4).
type InstanceSample struct {
	Scenario     string
	Seed         int64
	Outcome      vproc.Outcome
	FailReason   string
	Diffs        []vproc.Diff
	Addr         uint64
	TIDA, TIDB   int
	RegionA      int // Region.Global in the scenario's replay
	RegionB      int
	IdxA, IdxB   uint64
	PCA, PCB     int
	OrigValA     uint64 // value observed at the first access in the recording
	OrigValB     uint64
	FirstIsWrite bool
	SecondWrite  bool
}

// RaceResult is the classification of one unique static race, accumulated
// over every instance in every execution analyzed so far.
type RaceResult struct {
	Sites hb.SitePair

	Total int // instances analyzed
	NSC   int // No-State-Change instances
	SC    int // State-Change instances
	RF    int // Replay-Failure instances

	Group      Group
	Verdict    Verdict
	Suppressed bool // developer marked this race benign in the DB

	Samples []InstanceSample // representative instances (bounded)
}

// Exposing counts the instances that exposed a difference (SC + RF) — the
// quantity Figure 4/5 plot next to the totals.
func (r *RaceResult) Exposing() int { return r.SC + r.RF }

// Confidence grades a potentially-benign verdict by how many instances
// support it — §4.3: "the greater the number of instances studied, the
// greater is the confidence that a data race is benign". Potentially
// harmful verdicts are evidence-positive (one exposing instance proves
// the possibility), so they always grade "confirmed".
func (r *RaceResult) Confidence() string {
	if r.Verdict == PotentiallyHarmful {
		return "confirmed"
	}
	switch {
	case r.Total >= 10:
		return "high"
	case r.Total >= 3:
		return "medium"
	default:
		return "low"
	}
}

func (r *RaceResult) recompute() {
	switch {
	case r.SC > 0:
		r.Group = GroupStateChange
	case r.RF > 0:
		r.Group = GroupReplayFailure
	default:
		r.Group = GroupNoStateChange
	}
	if r.Group == GroupNoStateChange {
		r.Verdict = PotentiallyBenign
	} else {
		r.Verdict = PotentiallyHarmful
	}
}

// Classification is the aggregated result over one or more executions.
type Classification struct {
	Races []*RaceResult
}

// TotalInstances sums analyzed instances over all races.
func (c *Classification) TotalInstances() int {
	n := 0
	for _, r := range c.Races {
		n += r.Total
	}
	return n
}

// CountByVerdict returns (potentially benign, potentially harmful),
// excluding suppressed races from the harmful count (they are no longer
// reported to developers).
func (c *Classification) CountByVerdict() (benign, harmful int) {
	for _, r := range c.Races {
		if r.Verdict == PotentiallyBenign {
			benign++
		} else if !r.Suppressed {
			harmful++
		}
	}
	return
}

// Options tunes classification.
type Options struct {
	// Scenario labels samples for reproduction (typically the workload
	// scenario name).
	Scenario string
	// Seed is recorded into samples alongside the scenario.
	Seed int64
	// DB, when set, suppresses races a developer marked benign.
	DB *DB
	// Metrics, when set, receives the classify.* counters (instances by
	// outcome, races by verdict, replay-failure causes) and the vproc.*
	// counters, which Run publishes from each instance's result.
	Metrics *obs.Registry
	// NoMemo is read by nothing: Run consults only Memo, and
	// core.AnalyzeLogsInstrumented wires its batch memo into audited
	// items only. It goes when cmd/racebench, which sets it for its
	// un-audited batches, drops its noMemo argument.
	NoMemo bool
	// Memo, when set, is the replay cache to use (and share): Run
	// fingerprints every instance and replays each fingerprint once.
	// Nil, the zero Options, replays every instance, as the paper does:
	// a fingerprint costs about as much as the dual-order replay a hit
	// saves, so a memo is wired in only where the fingerprints are
	// computed anyway: an audited batch, where
	// core.AnalyzeLogsInstrumented wires one.
	Memo *Memo
	// Predict enables the prediction stage after classification: a
	// lockset + weak-HB + window-feasibility pass over the replayed
	// execution proposes racing pairs the recorded interleaving never
	// exhibited, and the ones at new site pairs are classified by a
	// second dual-order pass sharing this Options (and its Memo). The
	// classify package only carries the flag; core.AnalyzeLog acts on
	// it — putting it here lets every existing per-log options closure
	// (suite, analyze-dir, serve) thread it through unchanged.
	Predict bool
	// PredictWindow bounds the region-schedule distance the prediction
	// solver searches (0 = the predict package default).
	PredictWindow int
	// Audit, when set, receives this execution's verdict provenance:
	// Run appends one audit.Race per classified race, in report order,
	// each instance carrying its live-in fingerprint and both replay
	// orders' outcomes. The caller owns the execution envelope
	// (scenario, seed, log hash) and the file-level CacheHit
	// derivation (audit.File.DeriveCacheHits) — Run leaves CacheHit
	// false, because which instance of a shared fingerprint replays
	// depends on worker interleaving while the audit trail must not.
	Audit *audit.Execution
}

// maxSamplesPerRace bounds the instance samples one race keeps per
// execution (see keepSample).
const maxSamplesPerRace = 4

// Run analyzes every instance of every race in report and returns the
// per-race classification for this single execution. The instances are
// replayed in report order on one goroutine, reusing one vproc.Scratch:
// the fan-out lives a level up, where a batch analyzes whole executions
// concurrently (core.AnalyzeLogsInstrumented) and racer serve runs jobs
// concurrently.
func Run(exec *replay.Execution, report *hb.Report, opts Options) *Classification {
	// The replay cache is the caller's, if any; a nil Memo's Do just
	// replays.
	memo := opts.Memo
	// The audit trail needs fingerprints even with the memo off, so the
	// fingerprinter exists whenever either consumer does.
	var fper *vproc.Fingerprinter
	if memo != nil || opts.Audit != nil {
		fper = vproc.NewFingerprinter(exec)
	}
	var cHits, cMisses *obs.Counter
	if memo != nil {
		cHits = opts.Metrics.Counter("classify.memo.hits")
		cMisses = opts.Metrics.Counter("classify.memo.misses")
	}
	var sc vproc.Scratch
	// dualReplay classifies one instance of race ri, returning its result
	// and live-in fingerprint (zero without a fingerprinter).
	dualReplay := func(ri int, inst hb.Instance) (res vproc.Result, fp vproc.Fingerprint) {
		// Panic isolation per instance: a dual-order replay that panics
		// (a corrupt log can trip invariants the decoder cannot check)
		// records a ReplayFailure outcome instead of crashing the batch.
		err := sched.Guard(opts.Metrics, func() error {
			pair := racePair(inst)
			if fper != nil {
				fp = fper.Instance(pair)
			}
			var hit bool
			res, hit = memo.Do(fp, func() vproc.Result { return vproc.Analyze(exec, pair, vproc.Options{}, &sc) })
			if memo != nil {
				if hit {
					cHits.Inc()
					opts.Metrics.Emit("classify.memo.hit", uint64(ri))
				} else {
					cMisses.Inc()
					opts.Metrics.Emit("classify.memo.miss", uint64(ri))
				}
			}
			countOrders(opts.Metrics, res)
			return nil
		})
		if err != nil {
			reason := fmt.Sprintf("panic during dual-order replay: %v", err)
			// The panic interrupted the dual replay, so neither order has
			// an individual outcome; the audit trail records the panic for
			// both rather than claiming either order ran clean.
			res = vproc.Result{
				Outcome:    vproc.ReplayFailure,
				FailReason: reason,
				OrigFail:   reason,
				AltFail:    reason,
			}
		}
		return res, fp
	}

	cls := &Classification{}
	var auditRaces map[*RaceResult]audit.Race
	if opts.Audit != nil {
		auditRaces = make(map[*RaceResult]audit.Race, len(report.Races))
	}
	for ri, race := range report.Races {
		rr := &RaceResult{Sites: race.Sites}
		kinds := make(map[vproc.Outcome]int)
		var ar audit.Race
		for _, inst := range race.Instances {
			res, fp := dualReplay(ri, inst)
			rr.Total++
			switch res.Outcome {
			case vproc.NoStateChange:
				rr.NSC++
			case vproc.StateChange:
				rr.SC++
			case vproc.ReplayFailure:
				rr.RF++
				countFailureCause(opts.Metrics, res.FailReason)
			}
			rr.keepSample(kinds, maxSamplesPerRace, InstanceSample{
				Scenario:     opts.Scenario,
				Seed:         opts.Seed,
				Outcome:      res.Outcome,
				FailReason:   res.FailReason,
				Diffs:        res.Diffs,
				Addr:         inst.Addr,
				TIDA:         inst.RegionA.TID,
				TIDB:         inst.RegionB.TID,
				RegionA:      inst.RegionA.Global,
				RegionB:      inst.RegionB.Global,
				IdxA:         inst.First.Idx,
				IdxB:         inst.Second.Idx,
				PCA:          inst.First.PC,
				PCB:          inst.Second.PC,
				OrigValA:     inst.First.Val,
				OrigValB:     inst.Second.Val,
				FirstIsWrite: inst.First.IsWrite,
				SecondWrite:  inst.Second.IsWrite,
			})
			if opts.Audit != nil {
				orig, alt := res.OrigFail, res.AltFail
				if orig == "" {
					orig = "ok"
				}
				if alt == "" {
					alt = "ok"
				}
				ar.Instances = append(ar.Instances, audit.Instance{
					Fingerprint: hex.EncodeToString(fp[:]),
					Outcome:     res.Outcome.String(),
					OrigOrder:   orig,
					AltOrder:    alt,
					Diffs:       len(res.Diffs),
				})
			}
		}
		rr.recompute()
		if opts.DB != nil && opts.DB.IsMarkedBenign(rr.Sites) {
			rr.Suppressed = true
		}
		if opts.Audit != nil {
			ar.SiteA, ar.SiteB = rr.Sites.A, rr.Sites.B
			ar.Verdict, ar.Group = rr.Verdict.String(), rr.Group.String()
			ar.Suppressed = rr.Suppressed
			auditRaces[rr] = ar
		}
		cls.Races = append(cls.Races, rr)
	}
	if memo != nil {
		opts.Metrics.Gauge("classify.memo.bytes").Set(float64(memo.Bytes()))
	}
	sortRaces(cls.Races)
	if opts.Audit != nil {
		// Report order: the same site-pair sort the classification (and
		// every renderer downstream of it) uses.
		for _, rr := range cls.Races {
			opts.Audit.Races = append(opts.Audit.Races, auditRaces[rr])
		}
	}
	publishMetrics(opts.Metrics, cls)
	benign, harmful := cls.CountByVerdict()
	opts.Metrics.Logger().Debug("execution classified",
		"scenario", opts.Scenario, "seed", opts.Seed,
		"races", len(cls.Races), "instances", cls.TotalInstances(),
		"potentially_benign", benign, "potentially_harmful", harmful)
	return cls
}

// keepSample retains a bounded, representative sample set: while there
// is room under max every instance is kept (which also captures the
// first of each outcome kind), and once full an instance of an outcome
// kind not yet represented evicts the newest sample of a kind holding
// duplicates. kinds counts retained samples per outcome and belongs to
// the caller's per-race aggregation loop.
func (r *RaceResult) keepSample(kinds map[vproc.Outcome]int, max int, s InstanceSample) {
	if len(r.Samples) < max {
		r.Samples = append(r.Samples, s)
		kinds[s.Outcome]++
		return
	}
	if kinds[s.Outcome] > 0 {
		return
	}
	for i := len(r.Samples) - 1; i >= 0; i-- {
		k := r.Samples[i].Outcome
		if kinds[k] > 1 {
			kinds[k]--
			copy(r.Samples[i:], r.Samples[i+1:])
			r.Samples[len(r.Samples)-1] = s
			kinds[s.Outcome]++
			return
		}
	}
}

// publishMetrics flushes one execution's classification tallies (no-op
// without a registry). Instance counters accumulate across executions;
// the race counters count per-execution classifications, so a race seen
// in N executions contributes N (Merge re-derives the final verdict).
func publishMetrics(reg *obs.Registry, cls *Classification) {
	if reg == nil {
		return
	}
	reg.Counter("classify.executions").Inc()
	for _, r := range cls.Races {
		reg.Counter("classify.races").Inc()
		reg.Counter("classify.instances_total").Add(uint64(r.Total))
		reg.Counter("classify.instances_nsc").Add(uint64(r.NSC))
		reg.Counter("classify.instances_sc").Add(uint64(r.SC))
		reg.Counter("classify.instances_rf").Add(uint64(r.RF))
		if r.Verdict == PotentiallyBenign {
			reg.Counter("classify.races_potentially_benign").Inc()
		} else {
			reg.Counter("classify.races_potentially_harmful").Inc()
		}
		if r.Suppressed {
			reg.Counter("classify.races_suppressed").Inc()
		}
	}
}

// countOrders publishes one instance's vproc.* counters from its
// result, whether the memo served it or it was just replayed, so the
// counters are the same with and without the memo. Both orders always
// run; a replay failure names the original order when it failed
// (OrigFail), and the alternative order otherwise.
func countOrders(reg *obs.Registry, res vproc.Result) {
	reg.Counter("vproc.instances_analyzed").Inc()
	reg.Counter("vproc.order_replays").Add(2)
	switch res.Outcome {
	case vproc.ReplayFailure:
		if res.OrigFail != "" {
			reg.Counter("vproc.order_failures_original").Inc()
		} else {
			reg.Counter("vproc.order_failures_alternative").Inc()
		}
	case vproc.StateChange:
		reg.Counter("vproc.liveout_diffs").Add(uint64(len(res.Diffs)))
	}
}

// countFailureCause buckets a vproc replay-failure reason into a coarse
// cause counter, keyed by the stable message fragments runOrder emits.
// The order prefix ("original order: " / "alternative order: ") is
// ignored; unknown messages land in the "other" bucket. The table holds
// whole counter names, so counting builds no string.
func countFailureCause(reg *obs.Registry, reason string) {
	if reg == nil {
		return
	}
	name := "classify.replay_failure_other"
	for _, c := range []struct{ frag, name string }{
		{"control flow diverged", "classify.replay_failure_control_flow_divergence"},
		{"diverged out of the region", "classify.replay_failure_region_divergence"},
		{"control flow left the program", "classify.replay_failure_left_program"},
		{"step budget exhausted", "classify.replay_failure_budget_exhausted"},
		{"not captured in live-in memory", "classify.replay_failure_livein_miss"},
		{"unreplayable syscall", "classify.replay_failure_unreplayable_syscall"},
		{"fault during replay", "classify.replay_failure_fault"},
	} {
		if strings.Contains(reason, c.frag) {
			name = c.name
			break
		}
	}
	reg.Counter(name).Inc()
}

// racePair maps a detector instance to the virtual processor's replay
// coordinates.
func racePair(inst hb.Instance) vproc.RacePair {
	return vproc.RacePair{
		RegionA: inst.RegionA, RegionB: inst.RegionB,
		IdxA: inst.First.Idx, IdxB: inst.Second.Idx,
		PCA: inst.First.PC, PCB: inst.Second.PC,
		Addr: inst.Addr,
	}
}

// Merge folds other executions' classifications into dst, accumulating
// instance counts per unique race and re-deriving groups and verdicts —
// this is how one race observed across the paper's 18 executions ends up
// with a single classification.
func Merge(parts ...*Classification) *Classification {
	bySites := make(map[hb.SitePair]*RaceResult)
	out := &Classification{}
	for _, part := range parts {
		if part == nil {
			continue
		}
		for _, r := range part.Races {
			dst := bySites[r.Sites]
			if dst == nil {
				dst = &RaceResult{Sites: r.Sites, Suppressed: r.Suppressed}
				bySites[r.Sites] = dst
				out.Races = append(out.Races, dst)
			}
			dst.Total += r.Total
			dst.NSC += r.NSC
			dst.SC += r.SC
			dst.RF += r.RF
			dst.Suppressed = dst.Suppressed || r.Suppressed
			for _, s := range r.Samples {
				if len(dst.Samples) < 8 {
					dst.Samples = append(dst.Samples, s)
				}
			}
		}
	}
	for _, r := range out.Races {
		r.recompute()
	}
	sortRaces(out.Races)
	return out
}

func sortRaces(races []*RaceResult) {
	sort.Slice(races, func(i, j int) bool {
		a, b := races[i].Sites, races[j].Sites
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
}
