// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), the §5.1 log size, and the ablations. Run with:
//
//	go test -bench=. -benchmem
//
// The §5.1 overhead ladder (native, record, replay, happens-before
// analysis, classification) is timed by `paperbench -perf`, not here.
package racereplay

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/classify"
	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vproc"
	"repro/internal/workloads"
)

// browseLog caches one recorded browse-scenario log for the benchmarks
// that analyze it.
var browseLog *trace.Log

func browse(b *testing.B) (*Program, machine.Config) {
	b.Helper()
	s := workloads.BrowseScenario()
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	return prog, s.Config()
}

func getBrowseLog(b *testing.B) *trace.Log {
	b.Helper()
	if browseLog == nil {
		prog, cfg := browse(b)
		log, _, err := Record(prog, cfg, OnlineConfig{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		browseLog = log
	}
	return browseLog
}

// --- Table 1 / Table 2 / Figures 3–5 --------------------------------------

// BenchmarkTable1Classification regenerates Table 1: the full pipeline
// over all 18 executions, merged, joined with ground truth.
func BenchmarkTable1Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := RunSuite(SuiteOptions{})
		if err != nil {
			b.Fatal(err)
		}
		t1 := report.BuildTable1(run.Merged, report.SuiteTruth)
		if t1.Total() != 68 {
			b.Fatalf("table 1 total = %d, want 68", t1.Total())
		}
		rb, rh := t1.PotentiallyBenign()
		if rb != 32 || rh != 0 {
			b.Fatalf("potentially benign = %d/%d, want 32/0", rb, rh)
		}
	}
}

// BenchmarkTable2BenignCensus regenerates Table 2's benign-race census.
func BenchmarkTable2BenignCensus(b *testing.B) {
	run, err := RunSuite(SuiteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 := report.BuildTable2(run.Merged, report.SuiteTruth)
		if t2.Counts[workloads.CatApprox] != 23 {
			b.Fatalf("approx = %d, want 23", t2.Counts[workloads.CatApprox])
		}
	}
}

// BenchmarkFigure3BenignInstances regenerates Figure 3's series.
func BenchmarkFigure3BenignInstances(b *testing.B) {
	run, err := RunSuite(SuiteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := report.BuildFigure3(run.Merged, report.SuiteTruth)
		if len(f.Rows) != 32 {
			b.Fatalf("figure 3 rows = %d", len(f.Rows))
		}
	}
}

// BenchmarkFigure4HarmfulInstances regenerates Figure 4's series.
func BenchmarkFigure4HarmfulInstances(b *testing.B) {
	run, err := RunSuite(SuiteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := report.BuildFigure4(run.Merged, report.SuiteTruth)
		if len(f.Rows) != 7 {
			b.Fatalf("figure 4 rows = %d", len(f.Rows))
		}
	}
}

// BenchmarkFigure5MisclassifiedInstances regenerates Figure 5's series.
func BenchmarkFigure5MisclassifiedInstances(b *testing.B) {
	run, err := RunSuite(SuiteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := report.BuildFigure5(run.Merged, report.SuiteTruth)
		if len(f.Rows) != 29 {
			b.Fatalf("figure 5 rows = %d", len(f.Rows))
		}
	}
}

// BenchmarkLogSize reports the §5.1 log-size metrics (0.8 bit/instruction
// raw, ~0.3 compressed in the paper) as benchmark metrics.
func BenchmarkLogSize(b *testing.B) {
	log := getBrowseLog(b)
	var s SizeStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = LogStats(log)
	}
	b.ReportMetric(s.RawBitsPerInstr(), "rawbits/instr")
	b.ReportMetric(s.CompressedBitsPerInstr(), "zipbits/instr")
	b.ReportMetric(s.BytesPerBillion()/1e6, "MB/Ginstr")
}

// --- Ablations --------------------------------------------------------------

// BenchmarkDetectorAblation compares the paper's region-overlap detector
// against the vector-clock variant on the same executions (A1).
func BenchmarkDetectorAblation(b *testing.B) {
	s := workloads.Scenarios()[0]
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	log, _, err := Record(prog, s.Config(), OnlineConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	exec, err := Replay(log, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("interval", func(b *testing.B) {
		var races int
		for i := 0; i < b.N; i++ {
			races = len(hb.Detect(exec).Races)
		}
		b.ReportMetric(float64(races), "races")
	})
	b.Run("vclock", func(b *testing.B) {
		var races int
		for i := 0; i < b.N; i++ {
			rep, err := hb.DetectVC(exec, nil)
			if err != nil {
				b.Fatal(err)
			}
			races = len(rep.Races)
		}
		b.ReportMetric(float64(races), "races")
	})
}

// BenchmarkLocksetBaseline runs the Eraser-style baseline over the suite's
// first execution (A2): it warns on correctly synchronized idioms the
// happens-before detector is silent about.
func BenchmarkLocksetBaseline(b *testing.B) {
	s := workloads.Scenarios()[0]
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	log, _, err := Record(prog, s.Config(), OnlineConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	exec, err := Replay(log, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var warnings int
	for i := 0; i < b.N; i++ {
		warnings = len(lockset.Detect(exec).Warnings)
	}
	b.ReportMetric(float64(warnings), "warnings")
}

// BenchmarkSuppressionWorkflow measures re-analysis with a fully
// populated race database (the paper's triage loop, §1).
func BenchmarkSuppressionWorkflow(b *testing.B) {
	run, err := RunSuite(SuiteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	db := NewDB()
	for _, r := range run.Merged.Races {
		if h, _, ok := report.SuiteTruth(r.Sites.A); ok && !h && r.Verdict == classify.PotentiallyHarmful {
			db.MarkBenign(r.Sites, "triaged benign")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run2, err := RunSuite(SuiteOptions{DB: db})
		if err != nil {
			b.Fatal(err)
		}
		_, harmful := run2.Merged.CountByVerdict()
		if harmful != 7 {
			b.Fatalf("harmful = %d, want 7", harmful)
		}
	}
}

// BenchmarkSchedulerPolicies compares how many unique races each
// interleaving strategy exposes on the same scenario across ten seeds —
// the coverage knob of any dynamic race analysis.
func BenchmarkSchedulerPolicies(b *testing.B) {
	s := workloads.Scenarios()[0]
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []machine.SchedPolicy{
		machine.PolicyRandom, machine.PolicyRoundRobin, machine.PolicyPCT,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			var races int
			for i := 0; i < b.N; i++ {
				seen := map[hb.SitePair]bool{}
				for seed := int64(1); seed <= 10; seed++ {
					cfg := s.Config()
					cfg.Seed = seed
					cfg.Policy = policy
					log, _, err := Record(prog, cfg, OnlineConfig{}, nil)
					if err != nil {
						b.Fatal(err)
					}
					exec, err := Replay(log, nil)
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range DetectRaces(exec, nil).Races {
						seen[r.Sites] = true
					}
				}
				races = len(seen)
			}
			b.ReportMetric(float64(races), "uniqueraces")
		})
	}
}

// BenchmarkOracleAblation measures the dual-order replay of every race
// instance with and without the §4.2.1 versioned-memory oracle (ablation
// A3): the oracle lets the virtual processor continue through reads
// outside the regions' live-ins. The classifier runs without it.
func BenchmarkOracleAblation(b *testing.B) {
	s := workloads.Scenarios()[1]
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	log, _, err := Record(prog, s.Config(), OnlineConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	exec, err := Replay(log, nil)
	if err != nil {
		b.Fatal(err)
	}
	races := DetectRaces(exec, nil)
	for _, oracle := range []*replay.VersionedMemory{nil, exec.Memory()} {
		name := "base"
		if oracle != nil {
			name = "oracle"
		}
		b.Run(name, func(b *testing.B) {
			var rf int
			for i := 0; i < b.N; i++ {
				rf = 0
				for _, race := range races.Races {
					for _, inst := range race.Instances {
						pair := vproc.RacePair{
							RegionA: inst.RegionA, RegionB: inst.RegionB,
							IdxA: inst.First.Idx, IdxB: inst.Second.Idx,
							PCA: inst.First.PC, PCB: inst.Second.PC,
							Addr: inst.Addr,
						}
						if vproc.Analyze(exec, pair, vproc.Options{Oracle: oracle}, nil).Outcome == vproc.ReplayFailure {
							rf++
						}
					}
				}
			}
			b.ReportMetric(float64(rf), "rf-instances")
		})
	}
}

// BenchmarkSuiteCoverageScaling shows the paper's coverage lever: more
// recorded test cases per scenario accumulate more instances per race
// (and hence more confidence per verdict) at linear cost.
func BenchmarkSuiteCoverageScaling(b *testing.B) {
	for _, seeds := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("seeds=%d", seeds), func(b *testing.B) {
			var instances, races int
			for i := 0; i < b.N; i++ {
				run, err := RunSuite(SuiteOptions{Seeds: seeds})
				if err != nil {
					b.Fatal(err)
				}
				instances = run.Merged.TotalInstances()
				races = len(run.Merged.Races)
			}
			b.ReportMetric(float64(instances), "instances")
			b.ReportMetric(float64(races), "uniqueraces")
		})
	}
}

// BenchmarkServiceScenario times the second perf workload: deep call
// stacks, heap churn, and locked accumulation (native vs full analysis).
func BenchmarkServiceScenario(b *testing.B) {
	s := workloads.ServiceScenario()
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("native", func(b *testing.B) {
		var steps uint64
		for i := 0; i < b.N; i++ {
			m, err := machine.New(prog, s.Config())
			if err != nil {
				b.Fatal(err)
			}
			steps = m.Run().TotalSteps
		}
		b.ReportMetric(float64(steps), "instructions")
	})
	b.Run("analyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			log, _, err := Record(prog, s.Config(), OnlineConfig{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := AnalyzeLog(log, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeSuite measures container decode throughput: a
// synthetic 8-thread log (240k unpredictable loads) decoded from its v2
// container. mb_per_s is container megabytes per second of decode;
// raw_bits_per_instr is the container's §5.1 footprint.
func BenchmarkDecodeSuite(b *testing.B) {
	prog, _ := browse(b)
	log := syntheticLog(prog, 8, 30000)
	if err := log.Validate(); err != nil {
		b.Fatalf("synthetic log invalid: %v", err)
	}
	data := trace.MarshalV2(log)
	rawBits := trace.Stats(log).RawBitsPerInstr()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := trace.Decode(data, trace.DecodeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mbPerS(len(data), float64(b.Elapsed().Nanoseconds())/float64(b.N)), "mb_per_s")
	b.ReportMetric(rawBits, "raw_bits_per_instr")
}

// syntheticLog builds a deterministic, Validate-clean log sized for the
// decode benchmarks: nThreads threads, each with loads unpredictable-load
// records and a sequencer spine, over prog. The access pattern comes from
// a fixed LCG so every run serializes to identical bytes.
func syntheticLog(prog *Program, nThreads, loads int) *trace.Log {
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

// mbPerS converts a container size and a mean ns/op into decode
// throughput in megabytes per second.
func mbPerS(bytes int, nsPerOp float64) float64 {
	if nsPerOp <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / (nsPerOp / 1e9)
}

// BenchmarkMemoizedClassification measures the dual-order replay stage
// with the live-in fingerprint cache on and off. With memo=on each
// iteration classifies with a fresh memo, so it measures the steady
// within-execution hit pattern, not an ever-warmer cross-iteration
// cache; memo=off is the zero Options, which replays every instance.
// The hitrate metric reports the cache's hit fraction for the same
// workload.
func BenchmarkMemoizedClassification(b *testing.B) {
	log := getBrowseLog(b)
	exec, err := Replay(log, nil)
	if err != nil {
		b.Fatal(err)
	}
	races := DetectRaces(exec, nil)
	for _, memo := range []struct {
		name string
		on   bool
	}{{"memo=on", true}, {"memo=off", false}} {
		opts := func() Options {
			if memo.on {
				return Options{Memo: classify.NewMemo()}
			}
			return Options{}
		}
		b.Run(memo.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				classify.Run(exec, races, opts())
			}
			b.StopTimer()
			reg := NewMetrics()
			o := opts()
			o.Metrics = reg
			classify.Run(exec, races, o)
			snap := reg.Snapshot()
			h, m := snap.Counters["classify.memo.hits"], snap.Counters["classify.memo.misses"]
			if h+m > 0 {
				b.ReportMetric(float64(h)/float64(h+m), "hitrate")
			} else {
				b.ReportMetric(0, "hitrate")
			}
		})
	}
}

// BenchmarkSuite measures the full suite drive at one worker versus
// several — the wall-clock case for -jobs. Recording is serial
// in both; only the offline analysis fans out, so the gap is the
// parallelizable fraction (in the paper, classification is the costliest
// stage). On a single-core host the jobs>1 runs double as a
// fan-out overhead measurement: they should track jobs=1 closely.
func BenchmarkSuite(b *testing.B) {
	bench := func(jobs int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := workloads.RunSuite(workloads.SuiteOptions{Seeds: 2, Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("jobs=1", bench(1))
	if n := runtime.GOMAXPROCS(0); n > 1 {
		b.Run(fmt.Sprintf("jobs=%d", n), bench(0))
	}
	b.Run("jobs=8", bench(8))
}

// BenchmarkTimelineOverhead is the flight recorder's cost contract on
// the classify hot path, which calls Emit once per memo lookup. With no
// timeline attached (the default), a registry must add zero allocations
// over running with no registry at all — asserted, not just reported,
// so the CI bench smoke trips if an allocation sneaks onto the off
// path. The timeline=on case reports what turning the recorder on
// costs.
func BenchmarkTimelineOverhead(b *testing.B) {
	log := getBrowseLog(b)
	exec, err := Replay(log, nil)
	if err != nil {
		b.Fatal(err)
	}
	races := DetectRaces(exec, nil)
	run := func(reg *Metrics) { classify.Run(exec, races, Options{Metrics: reg}) }

	run(nil) // warm the shared caches outside the measurements
	base := testing.AllocsPerRun(5, func() { run(nil) })

	b.Run("timeline=off", func(b *testing.B) {
		reg := NewMetrics()
		run(reg) // populate the counter and span tables
		// One classify run performs hundreds of memo lookups, each with
		// an Emit on the hot path, and counts browse's two replay-failure
		// instances by cause; once the registry's tables hold every name,
		// none of it may allocate.
		if got := testing.AllocsPerRun(5, func() { run(reg) }); got > base {
			b.Errorf("timeline-off hot path allocates: %.1f allocs/op vs %.1f bare (budget +0)", got, base)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(reg)
		}
	})
	b.Run("timeline=on", func(b *testing.B) {
		reg := NewMetrics()
		reg.EnableTimeline(0)
		run(reg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(reg)
		}
	})
}
