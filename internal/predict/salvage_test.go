package predict_test

import (
	"fmt"
	"testing"

	"repro/internal/hb"
	"repro/internal/predict"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// salvageAnalysis is what the offline engines make of one execution: the
// site pairs hb.Detect observes and those predict.Run proposes.
type salvageAnalysis struct {
	detect    *hb.Report
	observed  map[hb.SitePair]bool
	predicted map[hb.SitePair]bool
}

func analyzeForSalvage(t *testing.T, log *trace.Log) salvageAnalysis {
	t.Helper()
	exec, err := replay.Run(log, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := salvageAnalysis{detect: hb.Detect(exec), observed: map[hb.SitePair]bool{}, predicted: map[hb.SitePair]bool{}}
	for _, r := range a.detect.Races {
		a.observed[r.Sites] = true
	}
	for _, c := range predict.Run(exec, predict.Options{}).Candidates {
		a.predicted[c.Sites] = true
	}
	return a
}

// TestSalvagedLogsClaimNoNewRaces corrupts one thread segment at a time
// in the v2 container of every suite scenario (seed 1), browse and
// service, decodes it in salvage mode and analyzes what survives. A
// salvaged log lacks whole threads, and with them fork, join and lock
// events, so its analysis may lose races but must not gain any:
//   - every race hb.Detect observes, the intact log observes too;
//   - every intact race it lost has only instances with a dropped thread;
//   - every site pair predict.Run proposes, the intact log observes or
//     predicts.
func TestSalvagedLogsClaimNoNewRaces(t *testing.T) {
	scenarios := append(workloads.SuiteScenarios(1), workloads.BrowseScenario(), workloads.ServiceScenario())
	trials := 0
	for _, s := range scenarios {
		prog, err := s.Program()
		if err != nil {
			t.Fatal(err)
		}
		log, _, err := record.Run(prog, s.Config())
		if err != nil {
			t.Fatal(err)
		}
		intact := analyzeForSalvage(t, log)
		data := trace.MarshalV2(log)
		spans, ok := trace.V2SegmentSpans(data)
		if !ok {
			t.Fatalf("%s: not a v2 container", s.Name)
		}
		for seg := 1; seg < len(spans); seg++ {
			corrupt := append([]byte(nil), data...)
			corrupt[(spans[seg][0]+spans[seg][1])/2] ^= 0xff
			salvaged, faults, err := trace.Decode(corrupt, trace.DecodeOptions{Salvage: true})
			if err != nil || len(faults) != 1 {
				t.Fatalf("%s segment %d: not salvaged (faults %v): %v", s.Name, seg, faults, err)
			}
			trials++
			label := fmt.Sprintf("%s segment %d (thread %d)", s.Name, seg, faults[0].TID)
			if fmt.Sprint(salvaged.DroppedThreads) != fmt.Sprint([]int{faults[0].TID}) {
				t.Errorf("%s: DroppedThreads = %v", label, salvaged.DroppedThreads)
			}
			got := analyzeForSalvage(t, salvaged)
			for _, r := range got.detect.Races {
				if !intact.observed[r.Sites] {
					t.Errorf("%s: observes %s, which the intact log does not", label, r.Sites)
				}
			}
			for _, r := range intact.detect.Races {
				if got.observed[r.Sites] {
					continue
				}
				for _, in := range r.Instances {
					if in.RegionA.TID != faults[0].TID && in.RegionB.TID != faults[0].TID {
						t.Errorf("%s: lost %s, but its instance between threads %d and %d survived",
							label, r.Sites, in.RegionA.TID, in.RegionB.TID)
						break
					}
				}
			}
			for sites := range got.predicted {
				if !intact.observed[sites] && !intact.predicted[sites] {
					t.Errorf("%s: predicts %s, which the intact log neither observes nor predicts", label, sites)
				}
			}
		}
	}
	t.Logf("%d salvaged trials", trials)
}
