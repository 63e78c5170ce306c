// Command racebench is the repository benchmark. Each workload drives the
// record → replay → detect → classify → predict → serve pipeline the way
// one kind of user runs it, measures for a fixed wall-clock budget, and
// checks every output against an oracle that does not share the code
// under test. See README.md for the workloads, the metric catalog and the
// bounds.
//
//	racebench -workload suite-triage -seed 1 -seconds 15 -trace 0
//	racebench -compare SETA/ SETB/
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (the end-to-end catalog, or with
// -trace 1 the per-layer catalog). The line before it describes the run:
// machine, toolchain, revision, seed and scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
)

// jobs is the analysis worker count of every workload: the batch pools
// and the serve daemon's workers. The benchmark machine has two CPUs.
const jobs = 2

// scale sizes the generated inputs. The benchmark measures defaultScale;
// the smoke test runs a tiny one.
type scale struct {
	SuiteSeeds  int `json:"suite_seeds"`  // scheduler seeds per suite scenario (suite-triage)
	RecordSeeds int `json:"record_seeds"` // scheduler seeds per program (record-online, serve-ingest)
	Programs    int `json:"programs"`     // distinct generated programs (predict-distinct)
	ServeRate   int `json:"serve_rate"`   // open-loop uploads per second (serve-ingest)
	ServeBurst  int `json:"serve_burst"`  // uploads per closed-loop burst (serve-ingest)
	SetupReps   int `json:"setup_reps"`   // set-ups per run; setup_s is their median
}

var defaultScale = scale{SuiteSeeds: 8, RecordSeeds: 16, Programs: 1024, ServeRate: 10, ServeBurst: 16, SetupReps: 5}

// env is what every workload set-up receives.
type env struct {
	seed  int64
	scale scale
	work  string // scratch directory: serve data and trace artifacts
}

// item is one execution the traced layer pass drives through every layer.
type item struct {
	label string
	prog  *isa.Program
	cfg   machine.Config
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// warm runs one unit of work unmeasured, so caches fill and lazy
	// set-up finishes before timing starts.
	warm() *measurement
	// measure runs the workload until deadline. reg is nil on the
	// end-to-end run; the traced run passes a registry every layer
	// publishes its spans and counters into.
	measure(deadline time.Time, reg *obs.Registry) *measurement
	// items lists the executions the traced layer pass replays.
	items() []item
	// logSize returns the v2 container bits and retired instructions of
	// the logs the workload recorded.
	logSize() (bits, instr uint64)
	close()
}

// workload names a set-up; BENCHMARK.json and README.md say why each
// workload exists.
type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

var allWorkloads = []workload{
	{"suite-triage", setupSuiteTriage},
	{"record-online", setupRecordOnline},
	{"predict-distinct", setupPredictDistinct},
	{"serve-ingest", setupServeIngest},
}

func findWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported value, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta makes a result file self-describing.
type meta struct {
	Schema     string             `json:"schema"`
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      int                `json:"trace"`
	CPUs       int                `json:"cpus"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Go         string             `json:"go"`
	Revision   string             `json:"vcs_revision"`
	Modified   bool               `json:"vcs_modified"`
	ServeFS    string             `json:"serve_fs"`
	Scale      scale              `json:"scale"`
	Info       map[string]float64 `json:"info"`
	Artifacts  []string           `json:"artifacts,omitempty"`
	Errors     []string           `json:"errors,omitempty"`
}

// resultFile is one result file: what ran, and what it measured.
type resultFile struct {
	Meta   meta   `json:"meta"`
	Result result `json:"result"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("racebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 15, "measured wall-clock seconds per run")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	outDir := fs.String("out", "", "also write each run's result file into this directory")
	work := fs.String("work", filepath.Join(".bench_build", "racebench"), "scratch directory for serve data and trace artifacts")
	compare := fs.Bool("compare", false, "compare two directories of result files: racebench -compare SETA/ SETB/")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "benchmark description holding the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "racebench: -compare takes two result directories")
			return 2
		}
		if err := compareSets(*benchFile, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "racebench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "racebench: want -workload W -seed N -seconds S -trace 0|1")
		return 2
	}
	selected := allWorkloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "racebench:", err)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "racebench:", err)
		return 1
	}
	code := 0
	for _, w := range selected {
		e := &env{seed: *seed, scale: defaultScale, work: *work}
		rec, err := runWorkload(w, e, *seconds, *traced == 1)
		if err != nil {
			fmt.Fprintf(stderr, "racebench: %s: %v\n", w.name, err)
			return 1
		}
		for _, msg := range rec.Meta.Errors {
			fmt.Fprintf(stderr, "racebench: %s: %s\n", w.name, msg)
		}
		if *outDir != "" {
			if err := writeRecord(*outDir, rec); err != nil {
				fmt.Fprintln(stderr, "racebench:", err)
				return 1
			}
		}
		metaLine, _ := json.Marshal(rec.Meta)
		resultLine, _ := json.Marshal(rec.Result)
		fmt.Fprintf(stdout, "%s\n%s\n", metaLine, resultLine)
		if !rec.Result.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload sets w up SetupReps times, measures the last instance for
// seconds, and assembles the result. The end-to-end run measures with
// tracing off. The traced run spends the first half untraced (the
// baseline for trace overhead and worker use), the second half with every
// layer publishing into a registry, then makes the serial layer pass.
func runWorkload(w workload, e *env, seconds float64, traced bool) (*resultFile, error) {
	var inst instance
	var setups []float64
	for i := 0; i < max(e.scale.SetupReps, 1); i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		var speed speedometer
		var err error
		cpu0 := cpuTime()
		sampler := speed.during(func() { inst, err = w.setup(e) })
		d := cpuTime() - cpu0 - sampler
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds()*speed.factor())
	}
	defer inst.close()

	rec := &resultFile{Meta: describe(w.name, e, seconds, traced)}
	total := inst.warm()
	runtime.GC()
	budget := time.Duration(seconds * float64(time.Second))
	values := map[string]float64{}
	if !traced {
		m := inst.measure(time.Now().Add(budget), nil)
		bits, instr := inst.logSize()
		values["setup_s"] = quartiles(setups)[1]
		values["cpu_ms_per_exec"] = m.cpuMSPerExec()
		values["log_bits_per_instr"] = ratio(float64(bits), float64(instr))
		values["alloc_kib_per_exec"] = m.allocKiBPerExec()
		p := tailPercentile(len(m.wall))
		rec.Meta.Info["cpu_speed"] = m.speed.factor()
		rec.Meta.Info["raw_cpu_ms_per_exec"] = ratio(float64(m.cpu)/1e6, float64(m.execs))
		rec.Meta.Info["wall_execs_per_s"] = ratio(float64(m.execs), m.elapsed.Seconds())
		rec.Meta.Info["wall_p50_ms"] = percentileMS(m.wall, 50)
		rec.Meta.Info[fmt.Sprintf("wall_p%g_ms", p)] = percentileMS(m.wall, p)
		rec.Meta.Info["wall_samples"] = float64(len(m.wall))
		total.add(m)
		rec.Result.Metrics = catalog(endToEnd, values)
	} else {
		gc0 := readRuntime(gcCPUMetric, totalCPUMetric)
		plain := inst.measure(time.Now().Add(budget/2), nil)
		gc1 := readRuntime(gcCPUMetric, totalCPUMetric)
		values["sched.busy_ratio"] = ratio(plain.cpu.Seconds(), jobs*plain.elapsed.Seconds())
		values["runtime.gc_cpu_ratio"] = ratio(gc1[0]-gc0[0], gc1[1]-gc0[1])
		values["serve.generator_late_p99_ms"] = plain.info["serve.generator_late_p99_ms"]
		loop := obs.NewRegistry()
		withSpans := inst.measure(time.Now().Add(budget/2), loop)
		values["obs.trace_overhead"] = ratio(withSpans.cpuMSPerExec(), plain.cpuMSPerExec())
		total.add(plain)
		total.add(withSpans)
		pass, err := layerPass(inst.items(), e, w.name, loop)
		if err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
		for k, v := range pass.values {
			values[k] = v
		}
		total.add(pass.m)
		rec.Meta.Artifacts = pass.files
		rec.Result.Metrics = catalog(perLayer, values)
	}
	for k, v := range total.info {
		rec.Meta.Info[k] = v
	}
	rec.Meta.Errors = total.errs
	rec.Result.Attempted = max(total.attempted, 1)
	rec.Result.Failed = total.failed
	rec.Result.Correct = total.failed == 0 && total.attempted > 0
	return rec, nil
}

// describe records the machine, toolchain, revision and inputs of a run.
func describe(name string, e *env, seconds float64, traced bool) meta {
	m := meta{
		Schema: "racebench/v1", Workload: name, Seed: e.seed, Seconds: seconds,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Revision: "unknown", ServeFS: filesystemOf(e.work), Scale: e.scale,
		Info: map[string]float64{},
	}
	if traced {
		m.Trace = 1
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// catalog shapes values into the result's metric map, with each metric's
// declared unit. A declared metric without a value is a benchmark bug.
func catalog(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("racebench: no value for metric " + d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

func writeRecord(dir string, rec *resultFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Meta.Workload, rec.Meta.Seed, rec.Meta.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
