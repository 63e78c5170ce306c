// Metrics: the pipeline-wide observability layer.
//
// Every stage of the pipeline — recording, replay, race detection, and
// dual-order classification — publishes counters and runs under a timing
// span when handed a metrics registry. Each stage has exactly one entry
// point, which takes the registry as a trailing argument or an options
// field (here SuiteOptions.Registry). This example runs the built-in
// suite with one, prints the span tree (wall time per stage), and shows
// the raw snapshot renderings a dashboard or Prometheus scraper would
// consume. The paper's §5.1 overhead figures come from
// `paperbench -perf`, which times each stage as CPU time; per-stage
// allocation comes from the allocation profile `racer profile` serves.
package main

import (
	"fmt"
	"log"
	"strings"

	racereplay "repro"
)

func main() {
	// One registry observes the whole run. Leaving it nil instead turns
	// every probe into a no-op — instrumentation costs nothing when off.
	reg := racereplay.NewMetrics()
	run, err := racereplay.RunSuite(racereplay.SuiteOptions{Registry: reg})
	if err != nil {
		log.Fatal(err)
	}
	snap := reg.Snapshot()

	benign, harmful := run.Merged.CountByVerdict()
	fmt.Printf("suite: %d scenarios, %d unique races (%d potentially benign, %d potentially harmful)\n\n",
		len(run.Scenarios), len(run.Merged.Races), benign, harmful)

	// The span tree accumulates each stage's wall time — the same tree
	// `racer profile` and `racer suite -metrics` show.
	fmt.Print(racereplay.MetricsSnapshot{Spans: snap.Spans}.Text())

	// A few of the counters each stage published along the way.
	fmt.Println("\nselected stage counters:")
	for _, name := range []string{
		"record.instructions",
		"record.loads_total",
		"record.loads_logged",
		"replay.regions",
		"replay.loads_injected",
		"detect.region_pairs_examined",
		"detect.region_pairs_conflicting",
		"classify.instances_total",
		"report.unique_races",
	} {
		fmt.Printf("  %-34s %d\n", name, snap.Counters[name])
	}
	if total := snap.Counters["record.loads_total"]; total > 0 {
		fmt.Printf("  %-34s %.4f (the predictability rule: fraction of loads logged)\n",
			"loads_logged / loads_total", float64(snap.Counters["record.loads_logged"])/float64(total))
	}

	// The same snapshot renders for machines: the first lines of the
	// Prometheus exposition a `racer profile` server would serve.
	fmt.Println("\nprometheus exposition (first lines):")
	lines := strings.SplitN(snap.Prometheus(), "\n", 7)
	for _, line := range lines[:6] {
		fmt.Println("  " + line)
	}
}
