// Timeline: the flight-recorder half of the observability layer.
//
// Counters and spans (examples/metrics) aggregate; the timeline keeps
// the individual events — which worker replayed which scenario, where
// the memoized classifier hit its cache, when an input was quarantined
// — in per-worker ring buffers with bounded memory, merged at snapshot
// time into one deterministic sequence. The suite runs audited: the
// audit fingerprints every instance, so only an audited batch consults
// the replay memo and marks its hits and misses. The export is Chrome
// trace_event JSON: drop racer-trace.json onto https://ui.perfetto.dev
// (or chrome://tracing) and every analysis worker is a swim lane with
// its pipeline stages as slices and the memo/quarantine events as
// instant markers.
package main

import (
	"fmt"
	"log"
	"os"

	racereplay "repro"
)

func main() {
	// EnableTimeline attaches the flight recorder; 0 means the default
	// ring capacity (4096 events per lane, ~64 B each). Without this
	// call — or with a nil registry — every Emit is a no-op and the
	// pipeline's hot paths stay allocation free.
	reg := racereplay.NewMetrics()
	reg.EnableTimeline(0)

	run, err := racereplay.RunSuite(racereplay.SuiteOptions{
		Seeds: 2, Jobs: 4, Registry: reg, Audit: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	benign, harmful := run.Merged.CountByVerdict()
	fmt.Printf("suite: %d scenarios, %d unique races (%d potentially benign, %d potentially harmful)\n\n",
		len(run.Scenarios), len(run.Merged.Races), benign, harmful)

	// The snapshot merges every lane by (timestamp, lane, sequence) — a
	// total order, so two snapshots of the same run agree exactly, no
	// matter how many workers emitted concurrently.
	snap := reg.Timeline().Snapshot()
	fmt.Printf("timeline: %d lanes, %d events (%d dropped to ring wraparound)\n",
		len(snap.Lanes), len(snap.Events), snap.Dropped())
	for _, lane := range snap.Lanes {
		fmt.Printf("  lane %d %-28q %4d events\n", lane.ID, lane.Label, lane.Events)
	}

	// A few raw events: the worker lanes interleave recording, replay,
	// detection, and classification per scenario.
	fmt.Println("\nfirst events of the merged sequence:")
	kinds := map[racereplay.TimelineEventKind]string{
		racereplay.EvInstant: "instant", racereplay.EvBegin: "begin", racereplay.EvEnd: "end",
	}
	for _, ev := range snap.Events[:12] {
		fmt.Printf("  %8.3fms lane %d %-7s %s", float64(ev.TS)/1e6, ev.Lane, kinds[ev.Kind], ev.Name)
		if ev.Label != "" {
			fmt.Printf(" (%s)", ev.Label)
		}
		fmt.Println()
	}

	// The same snapshot as a Perfetto-loadable trace. `racer suite
	// -trace-out` and the /trace endpoint of `racer profile` write this
	// exact format.
	f, err := os.Create("racer-trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Timeline().WriteTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote racer-trace.json — open it at https://ui.perfetto.dev")
}
