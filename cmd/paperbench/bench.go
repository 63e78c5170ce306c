package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workloads"

	racereplay "repro"
)

// runBenchOut measures the performance-critical paths of the offline
// pipeline with the machine-readable harness and writes the results to
// path — the BENCH_7.json artifact EXPERIMENTS.md §5.1 quotes and CI
// validates. Progress goes to out; the measurements only to the file.
func runBenchOut(path string, benchTime time.Duration, rounds int, out io.Writer) error {
	r := bench.Runner{BenchTime: benchTime, Rounds: rounds}
	file := bench.NewFile()

	s := workloads.BrowseScenario()
	prog, err := s.Program()
	if err != nil {
		return err
	}
	log, _, err := racereplay.Record(prog, s.Config(), racereplay.OnlineConfig{}, nil)
	if err != nil {
		return err
	}
	exec, err := racereplay.Replay(log, nil)
	if err != nil {
		return err
	}
	races := racereplay.DetectRaces(exec, nil)

	// hitRate runs one instrumented, untimed pass and reads the memo
	// counters, so the timed loops stay free of registry overhead.
	hitRate := func(f func(reg *racereplay.Metrics)) float64 {
		reg := racereplay.NewMetrics()
		f(reg)
		snap := reg.Snapshot()
		h, m := snap.Counters["classify.memo.hits"], snap.Counters["classify.memo.misses"]
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}

	fmt.Fprintln(out, "bench: classification (browse, full offline pipeline)")
	for _, memo := range []bool{true, false} {
		name := fmt.Sprintf("classification/memo=%s", onOff(memo))
		res := r.Run(file, name, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := racereplay.AnalyzeLog(log, racereplay.Options{NoMemo: !memo}); err != nil {
					fatal(err)
				}
			}
		})
		if memo {
			res.Metrics = map[string]float64{"hitrate": hitRate(func(reg *racereplay.Metrics) {
				if _, err := racereplay.AnalyzeLog(log, racereplay.Options{Metrics: reg}); err != nil {
					fatal(err)
				}
			})}
		}
	}

	fmt.Fprintln(out, "bench: memoized classification (memo on/off x workers 1/8)")
	for _, memo := range []bool{true, false} {
		for _, workers := range []int{1, 8} {
			memo, workers := memo, workers
			name := fmt.Sprintf("memoized-classification/memo=%s/workers=%d", onOff(memo), workers)
			opts := racereplay.Options{Parallel: workers, NoMemo: !memo}
			res := r.Run(file, name, func(n int) {
				for i := 0; i < n; i++ {
					racereplay.Classify(exec, races, opts)
				}
			})
			if memo {
				res.Metrics = map[string]float64{"hitrate": hitRate(func(reg *racereplay.Metrics) {
					o := opts
					o.Metrics = reg
					racereplay.Classify(exec, races, o)
				})}
			}
		}
	}

	fmt.Fprintln(out, "bench: happens-before analysis")
	r.Run(file, "hb-analysis", func(n int) {
		for i := 0; i < n; i++ {
			ex, err := racereplay.Replay(log, nil)
			if err != nil {
				fatal(err)
			}
			racereplay.DetectRaces(ex, nil)
		}
	})

	// The race-free fast path: the same race-free recording analyzed with
	// its online race-free verdict attached (offline decode+HB skipped)
	// and round-tripped through the wire format (annotation stripped, full
	// offline pass). The gap between the two rungs is the measured win the
	// online detector buys on clean executions.
	fmt.Fprintln(out, "bench: race-free fast path (service, online verdict on/off)")
	svc, err := workloads.FindScenario("service")
	if err != nil {
		return err
	}
	svcProg, err := svc.Program()
	if err != nil {
		return err
	}
	fastLog, orep, err := racereplay.Record(svcProg, svc.Config(), racereplay.OnlineConfig{Detect: true}, nil)
	if err != nil {
		return err
	}
	if !orep.RaceFree {
		return fmt.Errorf("service scenario raced online (%d pairs); fast-path benchmark needs a race-free workload", len(orep.Races))
	}
	var svcWire bytes.Buffer
	if err := racereplay.WriteLog(&svcWire, fastLog); err != nil {
		return err
	}
	slowLog, err := racereplay.ReadLog(bytes.NewReader(svcWire.Bytes()))
	if err != nil {
		return err
	}
	for _, online := range []bool{true, false} {
		benchLog := slowLog
		if online {
			benchLog = fastLog
		}
		r.Run(file, fmt.Sprintf("analyze-racefree/online=%s", onOff(online)), func(n int) {
			for i := 0; i < n; i++ {
				if _, err := racereplay.AnalyzeLog(benchLog, racereplay.Options{}); err != nil {
					fatal(err)
				}
			}
		})
	}

	fmt.Fprintln(out, "bench: online recording overhead (service, detect on/off)")
	for _, detect := range []bool{true, false} {
		oc := racereplay.OnlineConfig{Detect: detect}
		r.Run(file, fmt.Sprintf("record-online/detect=%s", onOff(detect)), func(n int) {
			for i := 0; i < n; i++ {
				if _, _, err := racereplay.Record(svcProg, svc.Config(), oc, nil); err != nil {
					fatal(err)
				}
			}
		})
	}

	fmt.Fprintln(out, "bench: suite (seeds=2, jobs 1/8)")
	for _, jobs := range []int{1, 8} {
		jobs := jobs
		res := r.Run(file, fmt.Sprintf("suite/jobs=%d", jobs), func(n int) {
			for i := 0; i < n; i++ {
				if _, err := racereplay.RunSuite(racereplay.SuiteOptions{Seeds: 2, Jobs: jobs}); err != nil {
					fatal(err)
				}
			}
		})
		res.Metrics = map[string]float64{"hitrate": hitRate(func(reg *racereplay.Metrics) {
			if _, err := racereplay.RunSuite(racereplay.SuiteOptions{Seeds: 2, Jobs: jobs, Registry: reg}); err != nil {
				fatal(err)
			}
		})}
	}

	// The prediction stage rides the same suite; the gap to the plain
	// suite rungs above is the windowed solver plus the second classify
	// pass over predicted-new pairs.
	fmt.Fprintln(out, "bench: predict-suite (seeds=2, prediction stage, jobs 1/8)")
	for _, jobs := range []int{1, 8} {
		jobs := jobs
		r.Run(file, fmt.Sprintf("predict-suite/jobs=%d", jobs), func(n int) {
			for i := 0; i < n; i++ {
				if _, err := racereplay.RunSuite(racereplay.SuiteOptions{Seeds: 2, Jobs: jobs, Predict: true}); err != nil {
					fatal(err)
				}
			}
		})
	}

	// Container decode throughput: the same synthetic 8-thread log is
	// decoded from its v2 container at one and eight workers. mb_per_s is
	// container bytes over median wall time; raw_bits_per_instr is the
	// §5.1 footprint metric of the container.
	fmt.Fprintln(out, "bench: decode-suite (synthetic 8-thread log, v2 at jobs 1/8)")
	synth := syntheticLog(prog, 8, 30000)
	if err := trace.Validate(synth); err != nil {
		return fmt.Errorf("synthetic decode-suite log invalid: %w", err)
	}
	v2data := trace.MarshalV2(synth)
	v2Stats := trace.Stats(synth)
	for _, jobs := range []int{1, 8} {
		jobs := jobs
		res := r.Run(file, fmt.Sprintf("decode-suite/v2/jobs=%d", jobs), func(n int) {
			for i := 0; i < n; i++ {
				if _, _, err := trace.DecodeV2(v2data, trace.V2Options{Jobs: jobs}); err != nil {
					fatal(err)
				}
			}
		})
		res.Metrics = map[string]float64{
			"mb_per_s":           mbPerS(len(v2data), res.Median()),
			"raw_bits_per_instr": v2Stats.RawBitsPerInstr(),
		}
	}

	if err := file.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "bench: wrote %d benchmarks to %s\n", len(file.Benchmarks), path)
	return nil
}

// checkBench validates a bench file against the schema and, with a
// baseline, enforces the regression gate: any benchmark whose median
// ns/op slowed past the tolerance fails the command.
func checkBench(path, against string, tolerance float64, out io.Writer) error {
	f, err := bench.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "bench: %s ok (%s, %s/%s, %d cpus, %d benchmarks)\n",
		path, f.Schema, f.GoOS, f.GoArch, f.CPUs, len(f.Benchmarks))
	if against == "" {
		return nil
	}
	base, err := bench.ReadFile(against)
	if err != nil {
		return err
	}
	cmp, err := bench.Compare(base, f, tolerance)
	if err != nil {
		return err
	}
	for _, name := range cmp.New {
		fmt.Fprintf(out, "bench: NEW %s (no baseline in %s; not gated)\n", name, against)
	}
	for _, r := range cmp.Regressions {
		fmt.Fprintf(out, "bench: REGRESSION %s: %.0f ns/op -> %.0f ns/op (%.2fx, tolerance %.2fx)\n",
			r.Name, r.Base, r.Current, r.Ratio, 1+tolerance)
	}
	if len(cmp.Regressions) > 0 {
		return fmt.Errorf("%d of %d benchmarks regressed past +%.0f%% vs %s",
			len(cmp.Regressions), cmp.Compared, tolerance*100, against)
	}
	fmt.Fprintf(out, "bench: no regressions past +%.0f%% across %d benchmarks vs %s\n",
		tolerance*100, cmp.Compared, against)
	return nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// syntheticLog builds a deterministic, Validate-clean log sized for the
// decode benchmarks: nThreads threads, each with loads unpredictable-load
// records and a sequencer spine, over prog. The access pattern comes from
// a fixed LCG so every run serializes to identical bytes.
func syntheticLog(prog *isa.Program, nThreads, loads int) *trace.Log {
	const seqEvery = 256 // one atomic sequencer per this many loads
	log := &trace.Log{Prog: prog, Seed: 42}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng
	}
	var clock uint64
	for tid := 0; tid < nThreads; tid++ {
		retired := uint64(4 * loads)
		t := &trace.ThreadLog{
			TID:       tid,
			Retired:   retired,
			EndReason: trace.EndHalted,
		}
		clock++
		t.StartTS = clock
		t.Seqs = append(t.Seqs, trace.Sequencer{Idx: 0, TS: clock, Kind: trace.SeqStart, Aux: -1})
		for i := 0; i < loads; i++ {
			idx := uint64(4*i + 1)
			t.Loads = append(t.Loads, trace.LoadRec{
				Idx:  idx,
				Addr: 0x1000 + next()%4096*8,
				Val:  next(),
			})
			if i%seqEvery == seqEvery-1 {
				clock++
				t.Seqs = append(t.Seqs, trace.Sequencer{Idx: idx + 1, TS: clock, Kind: trace.SeqAtomic, Aux: -1})
			}
		}
		clock++
		t.EndTS = clock
		t.Seqs = append(t.Seqs, trace.Sequencer{Idx: retired, TS: clock, Kind: trace.SeqEnd, Aux: -1})
		log.Threads = append(log.Threads, t)
		log.TotalSteps += retired
	}
	log.FinalClock = clock
	return log
}

// mbPerS converts a container size and a median ns/op into decode
// throughput in megabytes per second.
func mbPerS(bytes int, nsPerOp float64) float64 {
	if nsPerOp <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / (nsPerOp / 1e9)
}
