// Command racer is the CLI front end for the replay-based race
// classification pipeline:
//
//	racer run <prog.rasm>            run a program natively
//	racer record -o L <prog.rasm>    record an execution into a replay log
//	racer replay <L>                 replay a log and show per-thread output
//	racer detect <L>                 find data races (happens-before)
//	racer classify <L>               classify races by dual-order replay
//	racer scenario -name exec01      analyze a built-in workload scenario
//	racer suite                      analyze all 18 scenarios and summarize
//	racer predict <prog.rasm>        predict feasible races beyond the recording
//	racer lint <prog.rasm>           static race analysis, no execution
//	racer record-suite -dir D        record every scenario's log into D
//	racer analyze-dir -dir D         analyze a directory of recorded logs
//	racer validate <L...>            decode and check logs without analyzing
//	racer audit <F.json>             render a verdict-provenance trail
//	racer chaos                      fuzz the decoder (or a serve endpoint)
//	racer profile                    run the suite under a live metrics server
//	racer serve                      long-running analysis daemon over HTTP
//	racer mark-benign -db F -race R  record a developer triage verdict
//	racer debug <L>                  time-travel debugger over a replay log
//	racer disasm <prog.rasm>         disassemble a program
//	racer scenarios                  list the built-in workload scenarios
//
// The commands that run or record a program take -seed to pick the
// scheduler interleaving; equal seeds reproduce identical executions.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/classify"
	"repro/internal/debug"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/workloads"

	racereplay "repro"
)

// stdout is the command output sink, replaceable in tests.
var stdout io.Writer = os.Stdout

// exitCode is the status for a command that completed without a hard
// error. The contract (see usage): 0 clean, 1 the analysis reported
// potentially harmful races, 2 corrupt or invalid input (a failed
// validation, or quarantined files in a batch). Hard errors — bad
// flags, unreadable inputs, internal failures — always exit 2.
var exitCode int

// raiseExit widens the exit status; codes only escalate, so invalid
// input (2) wins over findings (1) wins over clean (0).
func raiseExit(code int) {
	if code > exitCode {
		exitCode = code
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "record":
		err = cmdRecord(args)
	case "replay":
		err = cmdReplay(args)
	case "detect":
		err = cmdDetect(args)
	case "classify":
		err = cmdClassify(args)
	case "scenario":
		err = cmdScenario(args)
	case "suite":
		err = cmdSuite(args)
	case "predict":
		err = cmdPredict(args)
	case "lint":
		err = cmdLint(args)
	case "record-suite":
		err = cmdRecordSuite(args)
	case "analyze-dir":
		err = cmdAnalyzeDir(args)
	case "validate":
		err = cmdValidate(args)
	case "audit":
		err = cmdAudit(args)
	case "chaos":
		err = cmdChaos(args)
	case "profile":
		err = cmdProfile(args)
	case "serve":
		err = cmdServe(args)
	case "mark-benign":
		err = cmdMarkBenign(args)
	case "debug":
		err = cmdDebug(args)
	case "disasm":
		err = cmdDisasm(args)
	case "scenarios":
		err = cmdScenarios(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "racer: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "racer:", err)
		os.Exit(2)
	}
	os.Exit(exitCode)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: racer <command> [flags]

commands (flags come before the file argument):
  run [-seed N] [-policy P] <prog.rasm>     execute a program on the RVM
  record [-seed N] [-o LOG] [-keyframes N] [-online [-stop-on-race]] <prog.rasm>
                                            record an execution into a replay log
                                            (the v2 container; readers also take
                                            legacy v1 logs); -online adds an
                                            in-recording race verdict,
                                            -stop-on-race ends the run at the
                                            first confirmed race
  replay <LOG>                              deterministically replay a log
  detect [-detector hb|vc|lockset [-triage]] <LOG>
                                            find data races in a replayed log;
                                            -triage replay-classifies the
                                            lockset warnings
  classify [-db FILE] [-race "A <-> B"] <LOG>
                                            classify races by dual-order replay
  scenario -name NAME [-db FILE]
                                        analyze one built-in workload scenario
  suite [-db FILE] [-seeds N] [-jobs N] [-static] [-predict]
                                        analyze all 18 built-in scenarios;
                                        -static adds the ahead-of-execution
                                        cross-validation section; -predict
                                        adds the prediction stage (feasible
                                        reorderings classified by replay)
  predict [-seed N] [-window W] [-db FILE] <prog.rasm|LOG> | predict -scenario NAME
                                        predict feasible races beyond the
                                        recorded interleaving (lockset +
                                        weak-HB + windowed ordering solver)
                                        and classify them by dual-order
                                        replay; predicted harmful races
                                        exit 1
  lint <prog.rasm...> | lint -scenario NAME
                                        static race analysis (no execution):
                                        CFG + constant propagation + must-hold
                                        locksets; any candidate exits 1, any
                                        invalid program exits 2
  record-suite -dir DIR [-seeds N] [-jobs N]
                                        record every scenario's log to DIR
  analyze-dir -dir DIR [-db FILE] [-jobs N] [-static] [-predict]
                                        offline analysis over recorded logs
  validate <LOG...>                     decode + check logs without analyzing
  audit <FILE.json>                     render a verdict-provenance trail
                                        written by suite/analyze-dir -audit-out
  chaos [-corruptions N] [-seed S] [-log FILE] [-serve URL]
                                        fuzz the decoder with N corrupted log
                                        variants; fails on any panic or
                                        unbounded allocation. With -serve,
                                        fire the sweep (plus truncated and
                                        slow-loris uploads) at a running
                                        'racer serve' endpoint instead and
                                        fail on any 5xx, handler panic, or
                                        dead service
  profile [-addr A] [-iterations N]     run the suite under a live metrics +
                                        pprof HTTP server
  serve [-addr A] [-data DIR] [-jobs N] [-queue N] [-deadline D]
                                        long-running analysis daemon: upload
                                        .rlog files over HTTP, get verdict
                                        reports back; crash-safe job
                                        journal in -data (see
                                        docs/SERVICE.md)
  mark-benign -db FILE -race "A <-> B"  record a developer benign verdict
  debug <LOG>                           time-travel debugger over a replay log
  disasm <prog.rasm>                    disassemble an assembled program
  scenarios                             list built-in workload scenarios

-jobs bounds the analysis worker pool (0 = GOMAXPROCS); results are
byte-identical at every worker count.

exit codes: 0 clean; 1 the analysis reported potentially harmful races;
2 corrupt or invalid input (failed validation, quarantined log files) or
any hard error. Corrupt logs in a batch are quarantined — listed in the
report's quarantine section — and the analysis completes over the rest.

most commands also take -metrics[=text|json|prom] and -metrics-out FILE to
emit pipeline observability data (stage spans, counters, histograms).
`)
}

// parsePolicy maps a CLI policy name to a machine scheduler policy.
func parsePolicy(name string) (machine.SchedPolicy, error) {
	switch name {
	case "random", "":
		return machine.PolicyRandom, nil
	case "rr", "round-robin":
		return machine.PolicyRoundRobin, nil
	case "pct":
		return machine.PolicyPCT, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want random, rr, or pct)", name)
}

func loadProgram(path string) (*racereplay.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(path[strings.LastIndexByte(path, '/')+1:], ".rasm")
	return racereplay.Assemble(name, string(src))
}

func loadLog(path string) (*racereplay.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return racereplay.ReadLog(f)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "scheduler seed")
	policy := fs.String("policy", "random", "scheduler policy: random, rr, pct")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run wants one program file")
	}
	prog, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	log, _, err := racereplay.Record(prog, racereplay.Config{Seed: *seed, Policy: pol}, racereplay.OnlineConfig{}, reg)
	if err != nil {
		return err
	}
	printThreads(log)
	return metrics.emit(reg)
}

func printThreads(log *racereplay.Log) {
	for _, t := range log.Threads {
		fmt.Fprintf(stdout, "thread %d: %v after %d instructions", t.TID, t.EndReason, t.Retired)
		if t.Fault != nil {
			fmt.Fprintf(stdout, " (fault kind %d at pc %d addr 0x%x)", t.Fault.Kind, t.Fault.PC, t.Fault.Addr)
		}
		fmt.Fprintln(stdout)
	}
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "scheduler seed")
	out := fs.String("o", "out.rlog", "log output path")
	policy := fs.String("policy", "random", "scheduler policy: random, rr, pct")
	keyframes := fs.Uint64("keyframes", 0, "emit a key frame every N instructions (0 = off)")
	online := fs.Bool("online", false, "detect races during recording and print the verdict")
	stopOnRace := fs.Bool("stop-on-race", false, "with -online, stop recording at the first confirmed race")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if *stopOnRace && !*online {
		return fmt.Errorf("-stop-on-race requires -online")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("record wants one program file")
	}
	prog, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		return err
	}
	cfg := racereplay.Config{Seed: *seed, Policy: pol}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	log, onlineRep, err := racereplay.Record(prog, cfg, racereplay.OnlineConfig{
		Detect: *online, StopOnFirstRace: *stopOnRace, KeyFrameInterval: *keyframes,
	}, reg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := racereplay.WriteLog(f, log); err != nil {
		return err
	}
	s := racereplay.LogStats(log)
	fmt.Fprintf(stdout, "recorded %d instructions across %d threads\n", s.Instructions, len(log.Threads))
	fmt.Fprintf(stdout, "log: %d bytes raw (%.2f bits/instr), %d bytes compressed (%.2f bits/instr) -> %s\n",
		s.RawBytes, s.RawBitsPerInstr(), s.CompressedBytes, s.CompressedBitsPerInstr(), *out)
	if onlineRep != nil {
		switch {
		case onlineRep.RaceFree:
			fmt.Fprintln(stdout, "online: race-free")
		case onlineRep.Stopped:
			fmt.Fprintf(stdout, "online: raced (%d site pairs), recording stopped at first race\n", len(onlineRep.Races))
		default:
			fmt.Fprintf(stdout, "online: raced (%d site pairs)\n", len(onlineRep.Races))
		}
	}
	return metrics.emit(reg)
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("replay wants one log file")
	}
	log, err := loadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	exec, err := racereplay.Replay(log, reg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replayed %d instructions, %d threads, %d sequencing regions\n",
		log.Instructions(), len(exec.Threads), len(exec.Regions))
	for _, t := range exec.Threads {
		fmt.Fprintf(stdout, "thread %d: %v, %d regions", t.TID, t.EndReason, len(t.Regions))
		if len(t.Output) > 0 {
			fmt.Fprintf(stdout, ", output %v", t.Output)
		}
		fmt.Fprintln(stdout)
	}
	return metrics.emit(reg)
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	detector := fs.String("detector", "hb", "hb (paper), vc (vector clock), or lockset (Eraser baseline)")
	triage := fs.Bool("triage", false, "with -detector lockset: replay-triage the warnings")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if *triage && *detector != "lockset" {
		return fmt.Errorf("-triage requires -detector lockset")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("detect wants one log file")
	}
	log, err := loadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	exec, err := racereplay.Replay(log, reg)
	if err != nil {
		return err
	}
	switch *detector {
	case "hb":
		printRaces(racereplay.DetectRaces(exec, reg))
	case "vc":
		rep, err := racereplay.DetectRacesVC(exec, reg)
		if err != nil {
			return err
		}
		printRaces(rep)
	case "lockset":
		rep := racereplay.DetectRacesLockset(exec)
		fmt.Fprintf(stdout, "%d lockset warnings (%d shared addresses checked)\n", len(rep.Warnings), rep.Checked)
		for _, w := range rep.Warnings {
			fmt.Fprintf(stdout, "  addr 0x%x: %s (earlier access %s)\n", w.Addr, w.Site, w.OtherSite)
		}
		if *triage {
			fmt.Fprintln(stdout, "replay triage of the lockset report (paper section 2.2.2):")
			for _, tr := range racereplay.TriageLockset(exec, rep, racereplay.Options{Metrics: reg}) {
				fmt.Fprintf(stdout, "  addr 0x%x: %v (ordered pairs %d; racy instances %d: %d nsc, %d sc, %d rf)\n",
					tr.Warning.Addr, tr.Verdict, tr.OrderedPairs, tr.RacyInstances, tr.NSC, tr.SC, tr.RF)
			}
		}
	default:
		return fmt.Errorf("unknown detector %q", *detector)
	}
	return metrics.emit(reg)
}

func printRaces(rep *hb.Report) {
	fmt.Fprintf(stdout, "%d unique data races (%d dynamic instances)\n", len(rep.Races), rep.TotalInstances)
	for _, r := range rep.Races {
		fmt.Fprintf(stdout, "  %s  (%d instances)\n", r.Sites, len(r.Instances))
	}
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	dbPath := fs.String("db", "", "race database for suppression")
	raceFilter := fs.String("race", "", "only report the race with this site pair")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("classify wants one log file")
	}
	log, err := loadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	res, err := racereplay.AnalyzeLog(log,
		racereplay.Options{DB: db, Scenario: fs.Arg(0), Seed: log.Seed, Metrics: reg})
	if err != nil {
		return err
	}
	printClassification(res.Classification, *raceFilter)
	return metrics.emit(reg)
}

func cmdScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	name := fs.String("name", "exec01", "built-in scenario name (or 'browse', 'service')")
	seed := fs.Int64("seed", 0, "override the scenario's scheduler seed")
	dbPath := fs.String("db", "", "race database for suppression")
	raceFilter := fs.String("race", "", "only report the race with this site pair")
	dump := fs.Bool("dump", false, "print the scenario's generated assembly and exit")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	s, err := workloads.FindScenario(*name)
	if err != nil {
		return err
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	if *dump {
		fmt.Fprint(stdout, s.Source())
		return nil
	}
	prog, err := s.Program()
	if err != nil {
		return err
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	res, err := racereplay.Analyze(prog, s.Config(), racereplay.Options{
		Scenario: s.Name, Seed: s.Seed, DB: db, Metrics: reg,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "scenario %s (seed %d): %d instructions, %d threads\n",
		s.Name, s.Seed, res.Log.Instructions(), len(res.Log.Threads))
	printClassification(res.Classification, *raceFilter)
	return metrics.emit(reg)
}

func cmdSuite(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	dbPath := fs.String("db", "", "race database for suppression")
	verbose := fs.Bool("v", false, "print a report for every race")
	seeds := fs.Int("seeds", 1, "scheduler seeds recorded per scenario")
	jobs := fs.Int("jobs", 0, "analysis workers (0 = GOMAXPROCS); output is identical at any count")
	staticStage := fs.Bool("static", false, "cross-validate static lint candidates against the dynamic results")
	predictStage := fs.Bool("predict", false, "add the prediction stage: feasible reorderings of each recorded schedule, classified by replay")
	auditOut := fs.String("audit-out", "", "write the verdict-provenance trail (racereplay-audit/v1 JSON) to this file")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if err := atLeastOne("seeds", *seeds); err != nil {
		return err
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	run, err := racereplay.RunSuite(racereplay.SuiteOptions{
		DB: db, Seeds: *seeds, Jobs: *jobs, Registry: reg, Static: *staticStage,
		Audit: *auditOut != "", Predict: *predictStage,
	})
	if err != nil {
		return err
	}
	if *auditOut != "" {
		if err := run.Audit.WriteFile(*auditOut); err != nil {
			return err
		}
	}
	sp := reg.StartSpan("report")
	printBatch(run, report.BatchOptions{Races: *verbose})
	sp.End()
	return metrics.emit(reg)
}

// printBatch prints a batch report and raises the exit status by the
// batch rule: 2 when an input was quarantined or nothing was analyzed,
// 1 when the run reports a potentially harmful race.
func printBatch(run *racereplay.SuiteRun, o report.BatchOptions) {
	fmt.Fprint(stdout, report.Batch(run, o))
	if len(run.Quarantined) > 0 || len(run.Scenarios) == 0 {
		raiseExit(2)
	}
	if run.Harmful() {
		raiseExit(1)
	}
}

// atLeastOne rejects a count flag below one, naming the flag: a zero or
// negative count would otherwise do no work, or silently one unit.
func atLeastOne(flag string, n int) error {
	if n < 1 {
		return fmt.Errorf("-%s %d: want a count >= 1", flag, n)
	}
	return nil
}

// cmdPredict runs the prediction stage over one execution: record (or
// load) it, propose feasible reorderings of the schedule that would
// race (lockset + weak-HB prefilter, access blocks, windowed ordering
// solver), and classify every predicted-new pair by the same dual-order
// replay as observed races. The argument is a program file or a
// recorded .rlog; -scenario substitutes a built-in workload. Exit
// status: 1 when any race — observed or predicted — classifies
// potentially harmful.
func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	name := fs.String("scenario", "", "predict over a built-in workload scenario instead of a file")
	seed := fs.Int64("seed", 1, "scheduler seed (programs; scenarios keep their own unless set)")
	window := fs.Int("window", 0, "solver window in regions (0 = default)")
	dbPath := fs.String("db", "", "race database for suppression")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if *window < 0 {
		return fmt.Errorf("-window %d: want a region count >= 0 (0 = default)", *window)
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	opts := racereplay.Options{DB: db, Predict: true, PredictWindow: *window, Metrics: reg}
	var res *racereplay.Result
	switch {
	case *name != "":
		if fs.NArg() != 0 {
			return fmt.Errorf("predict wants a file or -scenario NAME, not both")
		}
		s, err := workloads.FindScenario(*name)
		if err != nil {
			return err
		}
		prog, err := s.Program()
		if err != nil {
			return err
		}
		opts.Scenario, opts.Seed = s.Name, s.Seed
		res, err = racereplay.Analyze(prog, s.Config(), opts)
		if err != nil {
			return err
		}
	case fs.NArg() == 1 && strings.HasSuffix(fs.Arg(0), ".rlog"):
		log, err := loadLog(fs.Arg(0))
		if err != nil {
			return err
		}
		opts.Scenario, opts.Seed = filepath.Base(fs.Arg(0)), log.Seed
		res, err = racereplay.AnalyzeLog(log, opts)
		if err != nil {
			return err
		}
	case fs.NArg() == 1:
		prog, err := loadProgram(fs.Arg(0))
		if err != nil {
			return err
		}
		opts.Scenario, opts.Seed = prog.Name, *seed
		res, err = racereplay.Analyze(prog, racereplay.Config{Seed: *seed}, opts)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("predict wants one program or log file, or -scenario NAME")
	}
	benign, harmful := res.Classification.CountByVerdict()
	fmt.Fprintf(stdout, "observed: %d races (%d potentially benign, %d potentially harmful)\n",
		len(res.Classification.Races), benign, harmful)
	fmt.Fprint(stdout, racereplay.PredictedReport(res.Predicted))
	if harmful > 0 {
		raiseExit(1)
	}
	if res.Predicted != nil && res.Predicted.Classification != nil {
		if _, ph := res.Predicted.Classification.CountByVerdict(); ph > 0 {
			raiseExit(1)
		}
	}
	return metrics.emit(reg)
}

// cmdLint is the static half of the pipeline: analyze programs ahead of
// any execution and report race candidates. Exit status follows the
// documented contract — 1 when candidates are found, 2 on invalid input,
// 0 when clean. Invalid input covers both files that fail to load or
// assemble and programs the machine itself would refuse to run (an
// empty program lints vacuously clean but can never execute, so
// reporting it as clean would be a lie). A bad file in a batch is
// reported and the remaining files still lint — the exit code only
// escalates, so findings elsewhere in the batch stay visible.
func cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	scenario := fs.String("scenario", "", "lint a built-in workload scenario instead of a file")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	type item struct {
		label string
		prog  *racereplay.Program
		err   error
	}
	var items []item
	if *scenario != "" {
		it := item{label: "scenario " + *scenario}
		s, err := workloads.FindScenario(*scenario)
		if err == nil {
			it.prog, it.err = s.Program()
		} else {
			it.err = err
		}
		items = append(items, it)
	}
	for _, path := range fs.Args() {
		prog, err := loadProgram(path)
		items = append(items, item{label: path, prog: prog, err: err})
	}
	if len(items) == 0 {
		return fmt.Errorf("lint wants program files or -scenario NAME")
	}
	candidates := 0
	for i, it := range items {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if it.err == nil {
			// Mirror machine.New's admission checks: a program the
			// machine would reject is invalid input, not a clean lint.
			if verr := it.prog.Validate(); verr != nil {
				it.err = verr
			} else if len(it.prog.Code) == 0 {
				it.err = fmt.Errorf("empty program %s", it.prog.Name)
			}
		}
		if it.err != nil {
			fmt.Fprintf(stdout, "%s: invalid input: %v\n", it.label, it.err)
			raiseExit(2)
			continue
		}
		rep := racereplay.AnalyzeStatic(it.prog, reg)
		rep.Format(stdout)
		candidates += len(rep.Candidates)
	}
	if candidates > 0 {
		raiseExit(1)
	}
	return metrics.emit(reg)
}

func printClassification(c *racereplay.Classification, filter string) {
	benign, harmful := c.CountByVerdict()
	if harmful > 0 {
		raiseExit(1)
	}
	fmt.Fprintf(stdout, "%d races: %d potentially benign, %d potentially harmful (%d instances analyzed)\n",
		len(c.Races), benign, harmful, c.TotalInstances())
	for _, r := range c.Races {
		if filter != "" && r.Sites.String() != filter {
			continue
		}
		fmt.Fprint(stdout, report.RaceReport(r, report.SuiteTruth))
	}
}

func openDB(path string) (*classify.DB, error) {
	if path == "" {
		return nil, nil
	}
	return racereplay.LoadDB(path)
}

// cmdRecordSuite implements the online half of the paper's usage model:
// gather replay logs for every test scenario once, cheaply.
func cmdRecordSuite(args []string) error {
	fs := flag.NewFlagSet("record-suite", flag.ExitOnError)
	dir := fs.String("dir", "logs", "output directory")
	seeds := fs.Int("seeds", 1, "scheduler seeds recorded per scenario")
	jobs := fs.Int("jobs", 0, "recording workers (0 = GOMAXPROCS); output is identical at any count")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if err := atLeastOne("seeds", *seeds); err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}

	// Every (scenario, seed) recording is an independent deterministic
	// machine run, so unlike the live suite the online half can fan out
	// too. Logs land in index-addressed slots and are written and summed
	// in index order, keeping the output identical at any worker count.
	scenarios := workloads.SuiteScenarios(*seeds)
	progs := make([]*racereplay.Program, len(scenarios))
	for i, s := range scenarios {
		if progs[i], err = s.Program(); err != nil {
			return err
		}
	}
	logs := make([]*racereplay.Log, len(scenarios))
	errs := make([]error, len(scenarios))
	sched.ForEachFork(reg, *jobs, len(scenarios), func(i int, reg *racereplay.Metrics) {
		logs[i], _, errs[i] = racereplay.Record(
			progs[i], scenarios[i].Config(), racereplay.OnlineConfig{}, reg)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", scenarios[i].Name, scenarios[i].Seed, err)
		}
	}

	var totalInstr uint64
	var totalBytes int
	var buf bytes.Buffer
	for i, log := range logs {
		name := fmt.Sprintf("%s-%d.rlog", scenarios[i].Name, i%*seeds)
		buf.Reset()
		if err := racereplay.WriteLog(&buf, log); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*dir, name), buf.Bytes(), 0o666); err != nil {
			return err
		}
		totalInstr += log.Instructions()
		totalBytes += buf.Len()
	}
	fmt.Fprintf(stdout, "recorded %d executions: %d instructions, %d bytes of logs -> %s\n",
		len(logs), totalInstr, totalBytes, *dir)
	return metrics.emit(reg)
}

// cmdAnalyzeDir implements the offline half: replay every stored log,
// find and classify the races, and merge verdicts across executions.
func cmdAnalyzeDir(args []string) error {
	fs := flag.NewFlagSet("analyze-dir", flag.ExitOnError)
	dir := fs.String("dir", "logs", "directory of .rlog files")
	dbPath := fs.String("db", "", "race database for suppression")
	jobs := fs.Int("jobs", 0, "analysis workers (0 = GOMAXPROCS); output is identical at any count")
	staticStage := fs.Bool("static", false, "cross-validate static lint candidates against the dynamic results")
	predictStage := fs.Bool("predict", false, "add the prediction stage: feasible reorderings of each recorded schedule, classified by replay")
	auditOut := fs.String("audit-out", "", "write the verdict-provenance trail (racereplay-audit/v1 JSON) to this file")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	entries, err := filepath.Glob(filepath.Join(*dir, "*.rlog"))
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no .rlog files in %s", *dir)
	}
	sort.Strings(entries)
	// Corrupt or unreadable logs quarantine instead of aborting the
	// batch: the analysis completes over the healthy files and the
	// report lists every excluded one with its typed error (exit 2).
	// File decodes fan across the worker pool; the bookkeeping — labels,
	// groups, salvage warnings — runs serially in directory order, so
	// the output and the audit trail stay byte-identical at every -jobs
	// count. Salvage mode means a v2 container with some corrupt thread
	// segments still contributes its healthy threads instead of
	// quarantining the whole file.
	decodeSp := reg.StartSpan("decode")
	items := make([]workloads.Item, len(entries))
	faults := make([][]racereplay.ThreadFault, len(entries))
	sched.ForEachFork(reg, *jobs, len(entries), func(i int, reg *racereplay.Metrics) {
		it := &items[i]
		data, err := os.ReadFile(entries[i])
		if err == nil {
			// DecodeLogOpts validates the log it returns.
			it.Log, faults[i], err = racereplay.DecodeLogOpts(data, racereplay.DecodeOptions{
				Salvage: true, Metrics: reg,
			})
		}
		it.Err = err
	})
	for i, path := range entries {
		it := &items[i]
		it.Label = filepath.Base(path)
		it.Group = programOf(it.Label)
		if it.Err != nil {
			continue
		}
		for _, tf := range faults[i] {
			reg.Logger().Warn("thread segment salvaged at decode",
				"file", it.Label, "segment", tf.Segment, "tid", tf.TID, "err", tf.Err.Error())
		}
		reg.EmitLabeled("decode", it.Label, it.Log.Instructions())
		it.Seed = it.Log.Seed
	}
	decodeSp.End()
	run := workloads.AnalyzeBatch(items, workloads.SuiteOptions{
		DB: db, Jobs: *jobs, Registry: reg, Static: *staticStage,
		Audit: *auditOut != "", Predict: *predictStage,
	})
	if *auditOut != "" {
		if err := run.Audit.WriteFile(*auditOut); err != nil {
			return err
		}
	}
	printBatch(run, report.BatchOptions{Count: true})
	return metrics.emit(reg)
}

// programOf names the static group of a log file. Files from
// record-suite are named "<scenario>-<k>.rlog" with k in decimal
// digits, so the group is the name minus its "-<k>" suffix and pools the
// dynamic evidence of one program's seeds, exactly like the live suite;
// any other name (run-7days.rlog, a-0x1f.rlog) is a group of its own.
// Programs decoded from logs carry no data-symbol table, so the static
// section's candidate cells render as hex addresses.
func programOf(file string) string {
	base := strings.TrimSuffix(file, ".rlog")
	if i := strings.LastIndexByte(base, '-'); i > 0 {
		if k := base[i+1:]; k != "" && strings.Trim(k, "0123456789") == "" {
			return base[:i]
		}
	}
	return base
}

// cmdValidate decodes and structurally checks logs without analyzing
// them — the cheap pre-flight for a directory of recordings. Invalid
// files are reported per-file and raise the exit status to 2; the
// command itself only errors when given no files.
func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("validate wants one or more log files")
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	sp := reg.StartSpan("decode")
	bad := 0
	for i, path := range fs.Args() {
		label := filepath.Base(path)
		log, err := loadLog(path) // the decoders end in Validate
		reg.Counter("validate.files").Inc()
		if err != nil {
			bad++
			reg.Counter("validate.invalid").Inc()
			reg.EmitLabeled("quarantine", label, uint64(i))
			reg.Logger().Warn("invalid log", "file", label, "err", err.Error())
			fmt.Fprintf(stdout, "%s: INVALID: %v\n", path, err)
			continue
		}
		reg.Counter("validate.instructions").Add(log.Instructions())
		reg.Counter("validate.threads").Add(uint64(len(log.Threads)))
		reg.EmitLabeled("decode", label, log.Instructions())
		fmt.Fprintf(stdout, "%s: ok (%d instructions, %d threads)\n",
			path, log.Instructions(), len(log.Threads))
	}
	sp.End()
	if bad > 0 {
		fmt.Fprintf(stdout, "%d of %d logs invalid\n", bad, fs.NArg())
		raiseExit(2)
	}
	return metrics.emit(reg)
}

// cmdAudit renders a verdict-provenance trail (written by the suite or
// analyze-dir -audit-out flag) as the human-readable audit section —
// the quick way to read back which replay evidence produced a verdict.
func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("audit wants exactly one racereplay-audit JSON file")
	}
	f, err := racereplay.ReadAuditFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, racereplay.AuditSection(f))
	return nil
}

// cmdChaos fuzzes the decode path with deterministically corrupted log
// variants and enforces the robustness contract: every corruption must
// produce a structured error or a degraded-but-labeled result — never a
// panic, never an unbounded allocation.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	n := fs.Int("corruptions", 200, "number of corrupted log variants to decode")
	seed := fs.Int64("seed", 1, "corruption seed; equal seeds corrupt identically")
	name := fs.String("scenario", "exec01", "scenario recorded as the corruption target")
	logPath := fs.String("log", "", "corrupt an existing .rlog file instead of recording a scenario")
	serveURL := fs.String("serve", "", "fire the corruption sweep at a running 'racer serve' endpoint (e.g. http://127.0.0.1:8844) instead of the local decoder")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if err := atLeastOne("corruptions", *n); err != nil {
		return err
	}
	// The target is a recorded scenario's container, or an explicit -log
	// file swept as-is (a legacy v1 file takes its container-level
	// corruptions only).
	var container []byte
	if *logPath != "" {
		b, err := os.ReadFile(*logPath)
		if err != nil {
			return err
		}
		container = b
	} else {
		s, err := workloads.FindScenario(*name)
		if err != nil {
			return err
		}
		prog, err := s.Program()
		if err != nil {
			return err
		}
		log, _, err := racereplay.Record(prog, s.Config(), racereplay.OnlineConfig{}, nil)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := racereplay.WriteLog(&buf, log); err != nil {
			return err
		}
		container = buf.Bytes()
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	var rep interface {
		Summary() string
		Violations() int
	}
	if *serveURL != "" {
		rep = chaos.RunHTTP(*serveURL, container, *n, *seed, reg)
	} else {
		rep = chaos.Run(container, *n, *seed, reg)
	}
	fmt.Fprint(stdout, rep.Summary())
	violations := rep.Violations()
	if err := metrics.emit(reg); err != nil {
		return err
	}
	if violations > 0 {
		if *serveURL != "" {
			return fmt.Errorf("chaos: service contract violated %d times", violations)
		}
		return fmt.Errorf("chaos: robustness contract violated %d times", violations)
	}
	return nil
}

func cmdMarkBenign(args []string) error {
	fs := flag.NewFlagSet("mark-benign", flag.ExitOnError)
	dbPath := fs.String("db", "races.json", "race database path")
	race := fs.String("race", "", "site pair, e.g. 'suite:a <-> suite:b'")
	note := fs.String("note", "", "triage note")
	fs.Parse(args)
	if *race == "" {
		return fmt.Errorf("mark-benign wants -race 'siteA <-> siteB'")
	}
	parts := strings.Split(*race, "<->")
	if len(parts) != 2 {
		return fmt.Errorf("race must look like 'siteA <-> siteB'")
	}
	db, err := racereplay.LoadDB(*dbPath)
	if err != nil {
		return err
	}
	sites := hb.MakeSitePair(strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
	db.MarkBenign(sites, *note)
	if err := db.Save(*dbPath); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "marked %s benign in %s\n", sites, *dbPath)
	return nil
}

func cmdDebug(args []string) error {
	fs := flag.NewFlagSet("debug", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("debug wants one log file")
	}
	log, err := loadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	return debug.REPL(log, os.Stdin, stdout)
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("disasm wants one program file")
	}
	prog, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, prog.Disassemble())
	return nil
}

func cmdScenarios(args []string) error {
	for _, s := range workloads.Scenarios() {
		names := make([]string, len(s.Templates))
		for i, t := range s.Templates {
			names[i] = t.Name
		}
		fmt.Fprintf(stdout, "%s (seed %d): %s\n", s.Name, s.Seed, strings.Join(names, " "))
	}
	fmt.Fprintln(stdout, "browse (perf workload)")
	return nil
}
