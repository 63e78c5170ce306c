// Package racereplay is a from-scratch reproduction of "Automatically
// Classifying Benign and Harmful Data Races Using Replay Analysis"
// (Narayanasamy, Wang, Tigani, Edwards, Calder — PLDI 2007).
//
// The package records a multi-threaded RVM program's execution into an
// iDNA-style replay log, replays it deterministically, finds data races
// with a happens-before (sequencing-region overlap) detector, and
// classifies every race by replaying each dynamic instance twice in a
// virtual processor — once per order of the racing operations. Races all
// of whose instances produce identical live-outs are potentially benign;
// the rest are potentially harmful and come with a reproducible two-order
// replay scenario.
//
// Quick start:
//
//	prog, err := racereplay.Assemble("demo", src)
//	res, err := racereplay.Analyze(prog, racereplay.Config{Seed: 1}, racereplay.Options{})
//	for _, race := range res.Classification.Races {
//		fmt.Println(racereplay.RaceReport(race))
//	}
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured results of every table and figure.
package racereplay

import (
	"io"

	"repro/internal/asm"
	"repro/internal/audit"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/lockset"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/static"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Re-exported core types. The aliases make the public API self-contained:
// callers never import internal packages directly.
type (
	// Program is an assembled RVM program.
	Program = isa.Program
	// Config controls one deterministic machine run.
	Config = machine.Config
	// Log is a recorded execution (the replay log).
	Log = trace.Log
	// Execution is a fully replayed run with regions and accesses.
	Execution = replay.Execution
	// RaceSet is the happens-before detector's output.
	RaceSet = hb.Report
	// Options tunes classification.
	Options = classify.Options
	// Classification is the per-race verdict set.
	Classification = classify.Classification
	// RaceResult is one classified race.
	RaceResult = classify.RaceResult
	// Result bundles one analyzed execution.
	Result = core.Result
	// DB is the persistent race database for the triage workflow.
	DB = classify.DB
	// SizeStats quantifies a log's footprint.
	SizeStats = trace.SizeStats
	// SuiteRun is the analysis of the whole built-in suite.
	SuiteRun = workloads.SuiteRun
	// SuiteOptions configures a suite analysis: race database, seeds per
	// scenario, analysis worker count, and metrics registry.
	SuiteOptions = workloads.SuiteOptions
	// StaticReport is the static analyzer's output for one program:
	// thread entries, race candidates with benign-idiom hints, and skip
	// counters for what the analysis had to give up on.
	StaticReport = static.Report
	// Metrics is the pipeline-wide observability registry: counters,
	// gauges, histograms, and stage spans. Every pipeline stage takes its
	// registry as a trailing argument or an options field; a nil *Metrics
	// is off and costs nothing.
	Metrics = obs.Registry
	// MetricsSnapshot is a frozen registry, renderable as text, JSON, or
	// Prometheus exposition format.
	MetricsSnapshot = obs.Snapshot
	// TimelineEventKind is the shape of a timeline event: instant, stage
	// begin, or stage end.
	TimelineEventKind = obs.EventKind
	// AuditFile is the versioned verdict-provenance trail
	// (racereplay-audit/v1): per execution, the input log's content hash
	// and per-race replay evidence. Suite runs assemble one when
	// SuiteOptions.Audit is set.
	AuditFile = audit.File
	// OnlineConfig controls what rides along a recording: the online race
	// detector (on/off, stop-on-first-race) and the key-frame interval,
	// which the detector never changes.
	OnlineConfig = record.OnlineConfig
	// OnlineReport is the online detector's verdict for one recording:
	// race-free or the distinct racy site pairs seen, plus screening
	// statistics.
	OnlineReport = hb.OnlineReport
	// Predicted bundles one execution's prediction stage as attached to
	// Result.Predicted when Options.Predict is set: the raw report, the
	// predicted-new races, and their replay classification.
	Predicted = core.Predicted
)

// Timeline event kinds.
const (
	EvInstant = obs.EvInstant
	EvBegin   = obs.EvBegin
	EvEnd     = obs.EvEnd
)

// Verdicts.
const (
	PotentiallyBenign  = classify.PotentiallyBenign
	PotentiallyHarmful = classify.PotentiallyHarmful
)

// Assemble parses RVM assembly into a validated program.
func Assemble(name, src string) (*Program, error) { return asm.Assemble(name, src) }

// NewMetrics returns an empty observability registry to pass to the
// pipeline stages (a trailing reg argument, Options.Metrics, or
// SuiteOptions.Registry).
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Record runs prog under cfg and returns the replay log. The zero
// OnlineConfig is a plain recording. oc.KeyFrameInterval drops a key
// frame into each thread's log every that many instructions, enabling
// fast mid-log per-thread state queries (racer debug). oc.Detect
// attaches the online region-overlap detector, and the returned report
// gives its raced/race-free verdict and what it saw; without it the
// report is nil. The log is the same either way, key frames included,
// up to where oc.StopOnFirstRace ends the run. A non-nil reg
// receives the record span, the record.* and machine.* counters, and,
// with detection, the detect.online.* family.
func Record(prog *Program, cfg Config, oc OnlineConfig, reg *Metrics) (*Log, *OnlineReport, error) {
	log, _, rep, err := record.RunOnlineInstrumented(prog, cfg, oc, reg)
	return log, rep, err
}

// Replay re-executes a recorded log deterministically, reconstructing
// sequencing regions, their entry states and their accesses. Time travel
// is a query on the result: Memory().Before(addr, n) is what addr held
// after the first n regions. A non-nil reg times the replay under a
// "replay" span and receives the replay.* counters.
func Replay(log *Log, reg *Metrics) (*Execution, error) {
	sp := reg.StartSpan("replay")
	defer sp.End()
	return replay.Run(log, replay.Options{Metrics: reg})
}

// DetectRaces runs the paper's happens-before detector over a replayed
// execution. It reports no false positives with respect to the recording.
// A non-nil reg times it under a "detect" span and receives the detect.*
// counters.
func DetectRaces(exec *Execution, reg *Metrics) *RaceSet {
	sp := reg.StartSpan("detect")
	defer sp.End()
	return hb.DetectInstrumented(exec, reg)
}

// DetectRacesVC runs the vector-clock ablation detector (DESIGN.md A1)
// under a "detect" span, publishing the same detect.* counters as
// DetectRaces into reg (nil is off).
func DetectRacesVC(exec *Execution, reg *Metrics) (*RaceSet, error) {
	sp := reg.StartSpan("detect")
	defer sp.End()
	return hb.DetectVC(exec, reg)
}

// DetectRacesLockset runs the Eraser-style lockset baseline over a
// replayed execution (it can report false positives).
func DetectRacesLockset(exec *Execution) *lockset.Report { return lockset.Detect(exec) }

// TriageLockset applies the paper's replay analysis to a lockset report
// (§2.2.2): warnings whose conflicting accesses are all sequencer-ordered
// are dismissed as false positives; the genuinely racy ones are
// classified by dual-order replay.
func TriageLockset(exec *Execution, rep *lockset.Report, opts Options) []classify.LocksetTriage {
	return classify.TriageLockset(exec, rep, opts)
}

// MergeClassifications folds per-execution classifications into
// cross-execution verdicts (the same race accumulates instances).
func MergeClassifications(parts ...*Classification) *Classification {
	return classify.Merge(parts...)
}

// AnalyzeStatic runs the ahead-of-execution race analyzer over a program:
// per-thread-entry CFG, constant-propagation address resolution, must-hold
// locksets, and benign-idiom hints. It executes nothing and never fails —
// unanalyzable constructs degrade into the report's skip counters. A
// non-nil reg receives the static.* counters under a "static" span.
func AnalyzeStatic(prog *Program, reg *Metrics) *StaticReport { return static.Analyze(prog, reg) }

// PredictedReport renders one execution's prediction stage — solver
// statistics and every predicted-new race with verdict and witness.
func PredictedReport(p *Predicted) string { return report.PredictedReport(p) }

// Analyze runs the whole pipeline: record, replay, detect, classify.
// Every layer publishes spans and counters into opts.Metrics (nil is
// off).
func Analyze(prog *Program, cfg Config, opts Options) (*Result, error) {
	return core.Analyze(prog, cfg, opts)
}

// AnalyzeLog runs the offline pipeline over an existing log, publishing
// stage metrics into opts.Metrics (nil is off).
func AnalyzeLog(log *Log, opts Options) (*Result, error) { return core.AnalyzeLog(log, opts) }

// AnalyzeSource assembles src and analyzes one execution with the given
// scheduler seed — the one-call entry point the examples use.
func AnalyzeSource(name, src string, seed int64) (*Result, error) {
	prog, err := Assemble(name, src)
	if err != nil {
		return nil, err
	}
	return Analyze(prog, Config{Seed: seed}, Options{Scenario: name, Seed: seed})
}

// WriteLog serializes a log to w as a v2 container, the one format
// the pipeline writes.
func WriteLog(w io.Writer, log *Log) error { return trace.Write(w, log) }

// ReadLog reads r to its end and parses the log it holds: one written
// by WriteLog, or a legacy v1 log, told apart by their magic bytes.
func ReadLog(r io.Reader) (*Log, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	log, _, err := trace.Decode(data, trace.DecodeOptions{})
	return log, err
}

// ThreadFault names one per-thread segment a salvaging v2 decode
// dropped: the segment index, the thread it carried, and the typed
// decode error that condemned it.
type ThreadFault = trace.ThreadFault

// DecodeOptions configures DecodeLogOpts: v2 thread salvage, and the
// metrics registry decode counters land in.
type DecodeOptions = trace.DecodeOptions

// DecodeLogOpts decodes one serialized log (v2, or legacy v1) with
// optional v2 thread salvage; see trace.Decode.
func DecodeLogOpts(data []byte, o DecodeOptions) (*Log, []ThreadFault, error) {
	return trace.Decode(data, o)
}

// LogStats measures a log's serialized footprint (§5.1 metrics): the
// size of the container WriteLog emits, raw and deflated.
func LogStats(log *Log) SizeStats { return trace.Stats(log) }

// LoadDB reads a race database (missing file = empty database).
func LoadDB(path string) (*DB, error) { return classify.LoadDB(path) }

// NewDB returns an empty race database.
func NewDB() *DB { return classify.NewDB() }

// RaceReport renders the developer-facing report for one race, including
// the reproducible two-order replay coordinates.
func RaceReport(r *RaceResult) string { return report.RaceReport(r, report.SuiteTruth) }

// RunSuite analyzes the whole built-in suite and merges the verdicts:
// opts.Seeds scheduler seeds per scenario (the paper's coverage lever,
// §1), opts.Jobs analysis workers with output identical to the serial
// run (recording stays serial), and opts.Registry for pipeline metrics.
// The zero SuiteOptions is one seed, GOMAXPROCS workers, no metrics.
func RunSuite(opts SuiteOptions) (*SuiteRun, error) { return workloads.RunSuite(opts) }

// AuditSection renders the verdict-provenance trail for human review
// (nil file renders nothing).
func AuditSection(f *AuditFile) string { return report.AuditSection(f) }

// ReadAuditFile loads and validates a racereplay-audit/v1 file.
func ReadAuditFile(path string) (*AuditFile, error) { return audit.ReadFile(path) }
