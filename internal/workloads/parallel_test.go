package workloads

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// metricNames lists every counter, gauge and histogram name, sorted.
func metricNames(snap obs.Snapshot) []string {
	var out []string
	for name := range snap.Counters {
		out = append(out, "counter "+name)
	}
	for name := range snap.Gauges {
		out = append(out, "gauge "+name)
	}
	for name := range snap.Histograms {
		out = append(out, "histogram "+name)
	}
	sort.Strings(out)
	return out
}

// spanShape reduces a span tree to its deterministic skeleton — names,
// order, and counts, without the wall-clock and allocation totals.
func spanShape(spans []obs.SpanSnapshot) []string {
	var out []string
	var walk func(prefix string, spans []obs.SpanSnapshot)
	walk = func(prefix string, spans []obs.SpanSnapshot) {
		for _, sp := range spans {
			name := prefix + sp.Name
			out = append(out, fmt.Sprintf("%s#%d", name, sp.Count))
			walk(name+"/", sp.Children)
		}
	}
	walk("", spans)
	return out
}

// TestSuiteParallelMatchesSerial is the determinism contract: the suite
// analyzed on one worker and on eight produces identical scenario
// results, identical merged classification, identical counters, the
// same metric names and the same merged span ladder. The run is not
// audited, so no memo is consulted; TestSuiteAuditByteIdenticalAcrossJobs
// checks the memo's hit/miss split across worker counts.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	regSerial := obs.NewRegistry()
	serial, err := RunSuite(SuiteOptions{Seeds: 2, Jobs: 1, Registry: regSerial})
	if err != nil {
		t.Fatal(err)
	}
	regPar := obs.NewRegistry()
	par, err := RunSuite(SuiteOptions{Seeds: 2, Jobs: 8, Registry: regPar})
	if err != nil {
		t.Fatal(err)
	}

	if len(serial.Scenarios) != len(par.Scenarios) {
		t.Fatalf("scenario counts differ: %d vs %d", len(serial.Scenarios), len(par.Scenarios))
	}
	for i := range serial.Scenarios {
		a, b := serial.Scenarios[i], par.Scenarios[i]
		if a.Scenario.Name != b.Scenario.Name || a.Scenario.Seed != b.Scenario.Seed {
			t.Fatalf("scenario %d order differs: %s/%d vs %s/%d",
				i, a.Scenario.Name, a.Scenario.Seed, b.Scenario.Name, b.Scenario.Seed)
		}
		if !reflect.DeepEqual(a.Result.Classification, b.Result.Classification) {
			t.Errorf("scenario %s: classification differs between jobs=1 and jobs=8", a.Scenario.Name)
		}
	}
	if !reflect.DeepEqual(serial.Merged, par.Merged) {
		t.Error("merged classification differs between jobs=1 and jobs=8")
	}

	snapSerial, snapPar := regSerial.Snapshot(), regPar.Snapshot()
	if a, b := snapSerial.Counters, snapPar.Counters; !reflect.DeepEqual(a, b) {
		t.Errorf("stage counters differ between jobs=1 and jobs=8:\nserial: %v\nparallel: %v", a, b)
	}
	if a, b := metricNames(snapSerial), metricNames(snapPar); !reflect.DeepEqual(a, b) {
		t.Errorf("metric names differ between jobs=1 and jobs=8:\nserial: %v\nparallel: %v", a, b)
	}
	if a, b := spanShape(snapSerial.Spans), spanShape(snapPar.Spans); !reflect.DeepEqual(a, b) {
		t.Errorf("span ladder differs between jobs=1 and jobs=8:\nserial: %v\nparallel: %v", a, b)
	}
	if snapPar.Counters["sched.tasks_completed"] != uint64(len(par.Scenarios)) {
		t.Errorf("sched.tasks_completed = %d, want %d",
			snapPar.Counters["sched.tasks_completed"], len(par.Scenarios))
	}
}

// TestSuiteJobsDefaultsRunClean: the zero-value Jobs (GOMAXPROCS) and a
// width far beyond the work list both complete and agree with serial.
func TestSuiteJobsDefaultsRunClean(t *testing.T) {
	serial, err := RunSuite(SuiteOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{0, -3, 64} {
		run, err := RunSuite(SuiteOptions{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(serial.Merged, run.Merged) {
			t.Errorf("jobs=%d: merged classification differs from serial", jobs)
		}
	}
}

// TestSuiteSeedLabels pins the scenario-label rule: plain names for a
// single-seed run, name#k once multiple seeds fan out.
func TestSuiteSeedLabels(t *testing.T) {
	single, err := RunSuite(SuiteOptions{Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range single.Scenarios {
		for _, rr := range sr.Result.Classification.Races {
			for _, s := range rr.Samples {
				if strings.Contains(s.Scenario, "#") {
					t.Fatalf("single-seed sample labeled %q, want bare scenario name", s.Scenario)
				}
			}
		}
	}
	multi, err := RunSuite(SuiteOptions{Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	sawSuffix := false
	for _, sr := range multi.Scenarios {
		for _, rr := range sr.Result.Classification.Races {
			for _, s := range rr.Samples {
				if strings.Contains(s.Scenario, "#") {
					sawSuffix = true
				}
			}
		}
	}
	if !sawSuffix {
		t.Error("multi-seed run produced no #k-labeled samples")
	}
}
