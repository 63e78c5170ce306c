// Package core wires the full pipeline of the paper together: record a
// program's execution into a replay log, replay it, find the data races
// with the happens-before detector, and classify every race by replaying
// both orders of each instance in a virtual processor.
//
// This is the programmatic entry point the CLI, the examples, and the
// benchmark harness all build on; the root racereplay package re-exports
// it as the public API.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"repro/internal/classify"
	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Result bundles everything one analyzed execution produces.
type Result struct {
	Prog           *isa.Program
	Log            *trace.Log
	Machine        *machine.Result
	Exec           *replay.Execution
	Races          *hb.Report
	Classification *classify.Classification

	// Predicted is the prediction stage's output (nil unless
	// Options.Predict was set): the feasibility report plus the
	// dual-order classification of the predicted-new site pairs.
	Predicted *Predicted
}

// Predicted bundles one execution's prediction stage: the candidate
// report, the predicted-new races (site pairs the observed detector
// never reported), and their dual-order classification — the paper's
// benign/harmful verdict applied to races no single execution exhibited.
type Predicted struct {
	Report         *predict.Report
	NewRaces       *hb.Report
	Classification *classify.Classification
}

// LogStats measures the recorded log's footprint (§5.1 metrics).
func (r *Result) LogStats() trace.SizeStats { return trace.Stats(r.Log) }

// LogDigest is the hex SHA-256 of a log's v2 container — the content
// identity audit records attach verdicts to. MarshalV2 is
// deterministic and is exactly what trace.Write emits, so the digest is
// a pure function of the recorded execution and equals the sha256sum of
// its .rlog file.
func LogDigest(log *trace.Log) string {
	sum := sha256.Sum256(trace.MarshalV2(log))
	return hex.EncodeToString(sum[:])
}

// DecodeOptions tunes DecodeLogOpts and DecodeLogFrom: thread salvage
// and metrics (see trace.DecodeOptions). The zero value is the strict
// decode.
type DecodeOptions = trace.DecodeOptions

// DecodeLogOpts decodes one serialized log container with trace.Decode:
// v2 containers and legacy v1 logs are both accepted, told apart by
// their magic bytes, and failures are the trace package's typed errors.
// The fault list is non-empty only for a salvaged v2 log.
func DecodeLogOpts(data []byte, o DecodeOptions) (*trace.Log, []trace.ThreadFault, error) {
	return trace.Decode(data, o)
}

// logMagicLen is the length of the magic every log opens with.
const logMagicLen = 5

// DecodeLogFrom decodes a serialized log of size bytes from r, as
// DecodeLogOpts decodes the same bytes. A body whose first five bytes
// are no log magic is rejected after reading only those, and a size past
// trace.MaxRawLogBytes before anything of that size is allocated; any
// other body is read once, whole, and decoded.
func DecodeLogFrom(r io.ReaderAt, size int64, o DecodeOptions) (*trace.Log, []trace.ThreadFault, error) {
	src := io.NewSectionReader(r, 0, size)
	head := make([]byte, min(max(size, 0), logMagicLen))
	if _, err := io.ReadFull(src, head); err != nil {
		return nil, nil, &trace.DecodeError{Section: "magic", Err: fmt.Errorf("read: %w", err)}
	}
	// trace.Decode rejects a body with no log magic from its first five
	// bytes alone, so decoding just those tells junk apart unread.
	if _, _, err := trace.Decode(head, DecodeOptions{}); errors.Is(err, trace.ErrBadMagic) {
		return nil, nil, err
	}
	if size > trace.MaxRawLogBytes {
		return nil, nil, &trace.DecodeError{Section: "container", Err: trace.ErrTooLarge}
	}
	data := make([]byte, size)
	copy(data, head)
	if _, err := io.ReadFull(src, data[len(head):]); err != nil {
		return nil, nil, &trace.DecodeError{Offset: len(head), Section: "container", Err: fmt.Errorf("read: %w", err)}
	}
	return trace.Decode(data, o)
}

// AnalyzeLog runs the offline half over an existing log: replay,
// happens-before detection, and dual-order classification. With
// opts.Metrics set, each offline stage runs under its own span ("replay",
// "detect", "classify") and publishes its counters there; nil is off.
func AnalyzeLog(log *trace.Log, opts classify.Options) (*Result, error) {
	reg := opts.Metrics
	sp := reg.StartSpan("replay")
	exec, err := replay.Run(log, replay.Options{Metrics: reg})
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = reg.StartSpan("detect")
	races := hb.DetectInstrumented(exec, reg)
	sp.End()
	sp = reg.StartSpan("classify")
	cls := classify.Run(exec, races, opts)
	sp.End()
	res := &Result{
		Prog:           log.Prog,
		Log:            log,
		Exec:           exec,
		Races:          races,
		Classification: cls,
	}
	if opts.Predict {
		res.Predicted = runPredict(exec, races, opts, reg)
	}
	return res, nil
}

// runPredict is the prediction stage: propose feasible reorderings over
// the replayed execution, then classify the predicted-new site pairs by
// the same dual-order replay (sharing the caller's memo, metrics, and
// audit envelope). Audit races appended by the second classification
// pass are stamped Predicted, so the provenance trail distinguishes
// verdicts on observed instances from verdicts on proposed ones.
func runPredict(exec *replay.Execution, races *hb.Report, opts classify.Options, reg *obs.Registry) *Predicted {
	sp := reg.StartSpan("predict")
	prep := predict.Run(exec, predict.Options{Window: opts.PredictWindow, Metrics: reg})
	newRaces := prep.NewReport(races)
	sp.End()
	var auditBefore int
	if opts.Audit != nil {
		auditBefore = len(opts.Audit.Races)
	}
	sp = reg.StartSpan("classify-predicted")
	pcls := classify.Run(exec, newRaces, opts)
	sp.End()
	if opts.Audit != nil {
		for i := auditBefore; i < len(opts.Audit.Races); i++ {
			opts.Audit.Races[i].Predicted = true
		}
	}
	reg.Counter("predict.new_races").Add(uint64(len(newRaces.Races)))
	reg.Logger().Debug("prediction classified",
		"scenario", opts.Scenario, "seed", opts.Seed,
		"candidates", len(prep.Candidates), "new_races", len(newRaces.Races))
	return &Predicted{Report: prep, NewRaces: newRaces, Classification: pcls}
}

// Quarantined records one batch item whose analysis failed — the
// degraded-but-labeled half of the pipeline's robustness contract. A
// quarantined item never aborts its batch: the run completes with
// partial results and the per-item error (a *trace.DecodeError,
// *trace.ValidateError, replay error, or recovered *sched.PanicError)
// lands here for the report's quarantine section.
type Quarantined struct {
	Index int    // position in the batch
	Label string // Options.Scenario (or file name) when set
	Err   error
}

func (q Quarantined) String() string {
	if q.Label != "" {
		return fmt.Sprintf("%s: %v", q.Label, q.Err)
	}
	return fmt.Sprintf("item %d: %v", q.Index, q.Err)
}

// Quarantine excludes one batch item from the analysis: it counts the
// item on robust.quarantined, marks it on the timeline ("quarantine",
// label = item label, arg = index), logs one warning, and returns the
// entry for the report's quarantine section. Every batch stage — a
// recording that died, a file that would not decode, an analysis that
// failed — quarantines through it.
func Quarantine(reg *obs.Registry, index int, label string, err error) Quarantined {
	reg.Counter("robust.quarantined").Inc()
	reg.EmitLabeled("quarantine", label, uint64(index))
	reg.Logger().Warn("quarantined", "item", index, "label", label, "err", err.Error())
	return Quarantined{Index: index, Label: label, Err: err}
}

// AnalyzeLogsInstrumented runs the offline half over a batch of logs,
// fanning the per-log work across jobs workers (jobs < 1 means
// GOMAXPROCS). optsFor supplies the classify options for the i-th log.
// Results come back in input order and are identical to analyzing each
// log serially.
//
// The batch never aborts: a log that fails to replay — or whose
// analysis panics — leaves a nil slot in the results and a Quarantined
// entry (ascending by index) describing the failure. len(results) is
// always len(logs).
//
// Items whose options carry an Audit share one replay cache
// (classify.Memo): the audit fingerprints every instance anyway, so the
// memo adds only its map work, and its classify.memo.* counters equal
// the audit's derived cache hits. Every other item replays each of its
// instances, as the paper does, unless its options bring their own Memo:
// a fingerprint costs about as much as the dual-order replay a hit saves.
//
// A non-nil reg receives stage metrics. Every log, at every worker
// count, publishes through its own fork of reg (sched.ForEachFork);
// forks are adopted in input order after the batch drains, so the
// merged replay/detect/classify ladder, the metric names and the
// timeline lanes are identical at every worker count. The batch also
// publishes sched.*, every recovered panic increments sched.panics,
// and every quarantined item increments robust.quarantined.
func AnalyzeLogsInstrumented(logs []*trace.Log, optsFor func(i int) classify.Options, jobs int, reg *obs.Registry) ([]*Result, []Quarantined) {
	results := make([]*Result, len(logs))
	errs := make([]error, len(logs))
	// The audited items' replay cache: fingerprints are content hashes,
	// so instances recurring across executions of the same program (the
	// suite records every scenario under several seeds) hit it.
	memo := classify.NewMemo()
	jobs = sched.Normalize(jobs, sched.DefaultJobs())
	sched.ForEachFork(reg, jobs, len(logs), func(i int, reg *obs.Registry) {
		errs[i] = sched.Guard(reg, func() (err error) {
			o := optsFor(i)
			// Name the fork's timeline lane after the work item, so the
			// exported trace reads "exec01#1", not an anonymous worker.
			if o.Scenario != "" {
				reg.LabelLane(o.Scenario)
			}
			if o.Audit != nil && o.Memo == nil {
				o.Memo = memo
			}
			if reg != nil {
				o.Metrics = reg
			}
			results[i], err = AnalyzeLog(logs[i], o)
			return err
		})
	})
	var quarantined []Quarantined
	for i, err := range errs {
		if err != nil {
			results[i] = nil // a panicked job may have left a partial result
			quarantined = append(quarantined, Quarantine(reg, i, optsFor(i).Scenario, err))
		}
	}
	reg.Logger().Info("batch analyzed",
		"logs", len(logs), "jobs", jobs, "quarantined", len(quarantined))
	return results, quarantined
}

// Analyze is the whole pipeline: record prog, then analyze the log. The
// recording publishes into opts.Metrics alongside the offline stages.
func Analyze(prog *isa.Program, cfg machine.Config, opts classify.Options) (*Result, error) {
	log, mres, err := record.RunInstrumented(prog, cfg, opts.Metrics)
	if err != nil {
		return nil, err
	}
	if opts.Seed == 0 {
		opts.Seed = cfg.Seed
	}
	res, err := AnalyzeLog(log, opts)
	if err != nil {
		return nil, err
	}
	res.Machine = mres
	return res, nil
}
