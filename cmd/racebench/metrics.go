package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// metricDef declares one reported metric. BENCHMARK.json carries the same
// catalog plus the regression bounds; the smoke test keeps them in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of each workload sees. Every workload reports
// every metric; README.md defines one execution for each. The timings
// are CPU time of the whole process rescaled to reference speed (see
// calibrate.go), not wall time: on a shared virtual machine the host
// takes the vCPUs away for seconds at a time, which moved wall-clock
// throughput by half between runs of one seed. Wall-clock figures go to
// the result's info, ungated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_exec", "ms", "lower"},
	{"log_bits_per_instr", "bit", "lower"},
	{"alloc_kib_per_exec", "KiB", "lower"},
}

// perLayer is what the traced run reports: the serial layer pass over the
// workload's executions, plus the two halves of the measured loop.
var perLayer = []metricDef{
	{"machine.native_ns_per_instr", "ns", "lower"},
	{"record.ns_per_instr", "ns", "lower"},
	{"record.slowdown", "x", "lower"},
	{"record.online_ns_per_instr", "ns", "lower"},
	{"record.online_slowdown", "x", "lower"},
	{"record.online_racefree_ratio", "ratio", "higher"},
	{"trace.encode_ns_per_instr", "ns", "lower"},
	{"trace.bytes_per_exec", "B", "lower"},
	{"trace.decode_ms_per_exec", "ms", "lower"},
	{"replay.ms_per_exec", "ms", "lower"},
	{"replay.regions_per_exec", "count", "lower"},
	{"hb.detect_ms_per_exec", "ms", "lower"},
	{"hb.races_per_exec", "count", "higher"},
	{"hb.screened_out_ratio", "ratio", "higher"},
	{"classify.ms_per_exec", "ms", "lower"},
	{"classify.instances_per_exec", "count", "lower"},
	{"classify.memo_hit_ratio", "ratio", "higher"},
	{"predict.ms_per_exec", "ms", "lower"},
	{"predict.candidates_per_exec", "count", "lower"},
	{"predict.new_races_per_exec", "count", "higher"},
	{"classify_predicted.ms_per_exec", "ms", "lower"},
	{"report.render_ms", "ms", "lower"},
	{"serve.upload_p50_ms", "ms", "lower"},
	{"serve.upload_p99_ms", "ms", "lower"},
	{"serve.analysis_p50_ms", "ms", "lower"},
	{"serve.poll_p50_ms", "ms", "lower"},
	{"serve.report_p50_ms", "ms", "lower"},
	{"serve.backpressure_429", "count", "lower"},
	{"serve.generator_late_p99_ms", "ms", "lower"},
	{"serve.memo_hit_ratio", "ratio", "higher"},
	{"sched.busy_ratio", "ratio", "higher"},
	{"runtime.gc_cpu_ratio", "ratio", "lower"},
	{"obs.trace_overhead", "x", "lower"},
}

// measurement is what one measured phase produced.
type measurement struct {
	wall      []time.Duration // wall time of each unit of work
	execs     int             // executions completed inside the CPU window
	cpu       time.Duration   // process CPU time spent on those executions
	alloc     float64         // bytes allocated on the heap meanwhile
	speed     speedometer     // kernel runs interleaved with the work
	elapsed   time.Duration   // wall time of the CPU window
	attempted int             // operations attempted (executions or uploads)
	failed    int             // operations whose oracle check failed
	errs      []string        // the first few failures, for the result file
	info      map[string]float64
}

const maxErrs = 8

func (m *measurement) fail(n int, err error) {
	m.failed += n
	if len(m.errs) < maxErrs {
		m.errs = append(m.errs, err.Error())
	}
}

func (m *measurement) note(key string, v float64) {
	if m.info == nil {
		m.info = map[string]float64{}
	}
	m.info[key] = v
}

// add folds o's counts, failures and notes into m.
func (m *measurement) add(o *measurement) {
	m.attempted += o.attempted
	m.failed += o.failed
	for _, e := range o.errs {
		if len(m.errs) < maxErrs {
			m.errs = append(m.errs, e)
		}
	}
	for k, v := range o.info {
		m.note(k, v)
	}
}

// cpuMSPerExec is the process CPU time per execution in milliseconds,
// rescaled to the speedometer's reference speed.
func (m *measurement) cpuMSPerExec() float64 {
	return ratio(float64(m.cpu)/1e6, float64(m.execs)) * m.speed.factor()
}

func (m *measurement) allocKiBPerExec() float64 {
	return ratio(m.alloc/1024, float64(m.execs))
}

// timeCPU runs f under the speedometer, adding f's process CPU time
// (less the sampler's) and heap allocation to m.
func (m *measurement) timeCPU(f func()) {
	alloc0, cpu0 := readRuntime(allocMetric)[0], cpuTime()
	sampler := m.speed.during(f)
	m.cpu += cpuTime() - cpu0 - sampler
	m.alloc += readRuntime(allocMetric)[0] - alloc0
}

// closedLoop runs op back to back until deadline, always at least once,
// timing each call as one unit of work in wall and process CPU time. op
// returns the executions it completed and a check that runs after both
// clocks stop.
func closedLoop(deadline time.Time, op func() (execs int, check func() error)) *measurement {
	m := &measurement{}
	for first := true; first || time.Now().Before(deadline); first = false {
		var n int
		var check func() error
		start := time.Now()
		m.timeCPU(func() { n, check = op() })
		d := time.Since(start)
		m.wall = append(m.wall, d)
		m.elapsed += d
		m.execs += n
		m.attempted += n
		if err := check(); err != nil {
			m.fail(n, err)
		}
	}
	return m
}

// percentileMS is the p-th percentile of ds in milliseconds.
func percentileMS(ds []time.Duration, p float64) float64 {
	ns := make([]int, len(ds))
	for i, d := range ds {
		ns[i] = int(d)
	}
	sort.Ints(ns)
	return stats.Percentile(ns, p) / 1e6
}

// tailPercentile is the highest of the usual reporting percentiles that
// leaves at least ten of n samples beyond it, or 50.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// cpuTime is the user plus system CPU time of every thread of the
// process so far. Time the host steals from the vCPUs is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("racebench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics the benchmark reads.
const (
	allocMetric    = "/gc/heap/allocs:bytes"
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
	totalCPUMetric = "/cpu/classes/total:cpu-seconds"
)

// readRuntime reads the named runtime metrics as floats.
func readRuntime(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// filesystemOf names the filesystem type holding path ("tmpfs", "ext4",
// ...) from the longest matching mount point, or "unknown".
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	kind, best := "unknown", -1
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return kind
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// id parent major:minor root mountpoint options ... - fstype source superopts
		fields := strings.Fields(sc.Text())
		sep := -1
		for i, fl := range fields {
			if fl == "-" {
				sep = i
				break
			}
		}
		if len(fields) < 5 || sep < 0 || sep+1 >= len(fields) {
			continue
		}
		mp := fields[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			kind, best = fields[sep+1], len(mp)
		}
	}
	return kind
}
