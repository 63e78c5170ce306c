// Command paperbench regenerates every table and figure of the paper's
// evaluation section (§5) from the built-in workload suite:
//
//	paperbench            # everything
//	paperbench -table 1   # just Table 1
//	paperbench -figure 4  # just Figure 4
//	paperbench -perf      # just the §5.1 performance measurements
//
// The output is the text EXPERIMENTS.md quotes; the numbers are
// deterministic for the tables/figures (fixed seeds) and hardware-
// dependent for the timing section.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"

	racereplay "repro"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

// realMain is the testable entry point.
func realMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(out)
	table := fs.Int("table", 0, "render only this table (1 or 2)")
	figure := fs.Int("figure", 0, "render only this figure (3, 4, or 5)")
	perfOnly := fs.Bool("perf", false, "render only the performance section")
	md := fs.Bool("md", false, "emit the tables and figures as GitHub markdown")
	seeds := fs.Int("seeds", 1, "scheduler seeds recorded per scenario (instances scale with coverage)")
	jobs := fs.Int("jobs", 0, "analysis workers (0 = GOMAXPROCS); output is identical at any count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A selector outside the paper's tables and figures, or a seed count
	// below one, would otherwise run the whole suite and print nothing,
	// or silently one seed.
	switch {
	case *table != 0 && *table != 1 && *table != 2:
		return fmt.Errorf("-table %d: want 1 or 2", *table)
	case *figure != 0 && (*figure < 3 || *figure > 5):
		return fmt.Errorf("-figure %d: want 3, 4 or 5", *figure)
	case *seeds < 1:
		return fmt.Errorf("-seeds %d: want a count >= 1", *seeds)
	}

	all := *table == 0 && *figure == 0 && !*perfOnly && !*md

	var run *workloads.SuiteRun
	if all || *table != 0 || *figure != 0 || *md {
		var err error
		run, err = racereplay.RunSuite(racereplay.SuiteOptions{Seeds: *seeds, Jobs: *jobs})
		if err != nil {
			return err
		}
	}

	if *md {
		fmt.Fprint(out, report.Markdown(run.Merged, report.SuiteTruth))
		return nil
	}
	if all {
		fmt.Fprintln(out, "# Replay-based data race classification: evaluation")
		fmt.Fprintln(out)
		fmt.Fprint(out, report.Summary(run.Merged, report.SuiteTruth))
		fmt.Fprintln(out)
	}
	if all || *table == 1 {
		fmt.Fprint(out, report.BuildTable1(run.Merged, report.SuiteTruth).Render())
		fmt.Fprintln(out)
	}
	if all || *table == 2 {
		fmt.Fprint(out, report.BuildTable2(run.Merged, report.SuiteTruth).Render())
		fmt.Fprintln(out)
	}
	if all || *figure == 3 {
		fmt.Fprint(out, report.BuildFigure3(run.Merged, report.SuiteTruth).Render())
		fmt.Fprintln(out)
	}
	if all || *figure == 4 {
		fmt.Fprint(out, report.BuildFigure4(run.Merged, report.SuiteTruth).Render())
		fmt.Fprintln(out)
	}
	if all || *figure == 5 {
		fmt.Fprint(out, report.BuildFigure5(run.Merged, report.SuiteTruth).Render())
		fmt.Fprintln(out)
	}
	if all || *perfOnly {
		if err := perf(out); err != nil {
			return err
		}
	}
	if all {
		return ablation(out)
	}
	return nil
}

// perfReps is the number of timed repetitions of the §5.1 ladder. At 41,
// one run's median sat at the edge of another run's interquartile range;
// at about 16 ms of CPU a repetition on a 2-vCPU VM, 101 take two seconds.
const perfReps = 101

// perf reproduces §5.1 over the browse workload: the log size, and the
// overhead ladder. After a warm-up pass, each repetition runs every rung
// once, starting one rung later than the repetition before, so each rung
// follows each other rung equally often. A rung's multiple is taken
// against the native run of its own repetition, so drift in the host's
// speed cancels out of it.
func perf(out io.Writer) error {
	fmt.Fprintln(out, "Performance (browse scenario, cf. paper section 5.1)")
	s := workloads.BrowseScenario()
	prog, err := s.Program()
	if err != nil {
		return err
	}
	cfg := s.Config()

	// Recording is deterministic, so the offline rungs read the same log.
	var steps uint64
	var log *racereplay.Log
	var races *racereplay.RaceSet
	rungs := []struct {
		label, paper string
		run          func() error
	}{
		{"native execution", "", func() error {
			m, err := machine.New(prog, cfg)
			if err == nil {
				steps = m.Run().TotalSteps
			}
			return err
		}},
		{"recording", "~6x on x86", func() (err error) {
			log, _, err = racereplay.Record(prog, cfg, racereplay.OnlineConfig{}, nil)
			return err
		}},
		{"replay", "~10x", func() error {
			_, err := racereplay.Replay(log, nil)
			return err
		}},
		{"happens-before analysis", "~45x", func() error {
			exec, err := racereplay.Replay(log, nil)
			if err == nil {
				races = racereplay.DetectRaces(exec, nil)
			}
			return err
		}},
		{"replay classification", "~280x", func() error {
			_, err := racereplay.AnalyzeLog(log, racereplay.Options{})
			return err
		}},
	}

	// Per rung, the CPU nanoseconds of each repetition.
	cpu := make([][]int, len(rungs))
	for rep := -1; rep < perfReps; rep++ { // rep -1 is the warm-up, not kept
		for k := range rungs {
			i := (max(rep, 0) + k) % len(rungs)
			t0 := cpuTime()
			if err := rungs[i].run(); err != nil {
				return fmt.Errorf("%s: %w", rungs[i].label, err)
			}
			if d := cpuTime() - t0; rep >= 0 {
				cpu[i] = append(cpu[i], int(d))
			}
		}
	}

	st := racereplay.LogStats(log)
	fmt.Fprintf(out, "  instructions executed:      %d across %d threads\n", steps, len(log.Threads))
	fmt.Fprintf(out, "  log size:                   %.2f bits/instr raw, %.2f bits/instr compressed\n",
		st.RawBitsPerInstr(), st.CompressedBitsPerInstr())
	fmt.Fprintf(out, "  storage per 10^9 instrs:    %.0f MB compressed (paper: ~96 MB raw)\n", st.BytesPerBillion()/1e6)
	fmt.Fprintf(out, "  races in this execution:    %d unique (%d instances)\n", len(races.Races), races.TotalInstances)
	fmt.Fprintf(out, "  stage timing:               median [interquartile range] of %d repetitions after a warm-up,\n", perfReps)
	fmt.Fprintln(out, "                              stage order rotated; multiples are of the same repetition's native run")
	for i, r := range rungs {
		q1, q2, q3 := quartiles(cpu[i], 1e6)
		fmt.Fprintf(out, "  %-28s%.2f ms [%.2f, %.2f]", r.label+":", q2, q1, q3)
		if i > 0 {
			mult := make([]int, perfReps) // in millionths: stats.Percentile takes ints
			for rep, d := range cpu[i] {
				mult[rep] = int(int64(d) * 1e6 / int64(max(cpu[0][rep], 1)))
			}
			q1, q2, q3 := quartiles(mult, 1e6)
			fmt.Fprintf(out, "  %.2fx [%.2f, %.2f] native; paper %s", q2, q1, q3, r.paper)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  clock:                      %s\n", cpuClock)
	fmt.Fprintln(out, "  garbage collection:         none forced; a stage is charged the collection work that runs while it does")
	fmt.Fprintln(out)
	return nil
}

// quartiles returns the first quartile, median and third quartile of
// xs, each divided by unit.
func quartiles(xs []int, unit float64) (q1, q2, q3 float64) {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return stats.Percentile(s, 25) / unit, stats.Percentile(s, 50) / unit, stats.Percentile(s, 75) / unit
}

// ablation renders A1 (interval vs vector-clock detector) and A2 (lockset
// baseline false positives) over the first scenario.
func ablation(out io.Writer) error {
	fmt.Fprintln(out, "Ablations (scenario exec01)")
	s := workloads.Scenarios()[0]
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
	interval := hb.Detect(exec)
	vc, err := hb.DetectVC(exec, nil)
	if err != nil {
		return err
	}
	ls := lockset.Detect(exec)
	fmt.Fprintf(out, "  A1 region-overlap detector:  %d races (%d instances)\n", len(interval.Races), interval.TotalInstances)
	fmt.Fprintf(out, "  A1 vector-clock detector:    %d races (%d instances)\n", len(vc.Races), vc.TotalInstances)
	fmt.Fprintf(out, "  A2 lockset (Eraser) baseline: %d warnings over %d shared addresses\n", len(ls.Warnings), ls.Checked)
	fmt.Fprintln(out, "  (the lockset baseline also fires on fork/join and user-constructed")
	fmt.Fprintln(out, "   synchronization: false positives the happens-before detector avoids)")
	return nil
}
