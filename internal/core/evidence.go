package core

import (
	"repro/internal/classify"
	"repro/internal/hb"
	"repro/internal/static"
)

// CollectEvidence condenses analyzed executions of one program into the
// dynamic evidence the static cross-validator joins against: every site
// that executed in any run, and every happens-before race with its
// classifier verdict. Results from different seeds of the same program
// merge; a race seen under any seed counts, and a potentially-harmful
// verdict from any seed outranks a benign one (same stickiness the
// classifier's own Merge applies).
func CollectEvidence(results []*Result) static.DynamicEvidence {
	ev := static.DynamicEvidence{
		ObservedSites: map[string]bool{},
		Races:         map[hb.SitePair]string{},
	}
	harmful := classify.PotentiallyHarmful.String()
	record := func(sites hb.SitePair, verdict string) {
		if prev, ok := ev.Races[sites]; !ok || (prev != harmful && verdict == harmful) {
			ev.Races[sites] = verdict
		}
	}
	for _, r := range results {
		if r == nil {
			continue
		}
		// Mark each PC once, then format each distinct one once.
		prog := r.Exec.Prog
		seen := make([]bool, len(prog.Code))
		for _, region := range r.Exec.Regions {
			for _, acc := range region.Accesses {
				if acc.PC >= 0 && acc.PC < len(seen) {
					seen[acc.PC] = true
				} else {
					ev.ObservedSites[acc.Site(prog)] = true
				}
			}
		}
		for pc, ok := range seen {
			if ok {
				ev.ObservedSites[prog.SiteOf(pc)] = true
			}
		}
		if r.Classification != nil {
			for _, rr := range r.Classification.Races {
				record(rr.Sites, rr.Verdict.String())
			}
		}
		if r.Races != nil {
			for _, race := range r.Races.Races {
				record(race.Sites, "unclassified")
			}
		}
	}
	collectPredicted(&ev, results)
	return ev
}

// collectPredicted fills ev.Predicted — the prediction engine's race
// set — from any result that ran the prediction stage. Prediction
// subsumes observation by construction, so the map holds both the
// observed races (with their verdicts) and the predicted-new ones
// (with the second classification pass's verdicts), under the same
// harmful-outranks-benign stickiness as the observed map.
func collectPredicted(ev *static.DynamicEvidence, results []*Result) {
	harmful := classify.PotentiallyHarmful.String()
	record := func(sites hb.SitePair, verdict string) {
		if prev, ok := ev.Predicted[sites]; !ok || (prev != harmful && verdict == harmful) {
			ev.Predicted[sites] = verdict
		}
	}
	for _, r := range results {
		if r == nil || r.Predicted == nil {
			continue
		}
		if ev.Predicted == nil {
			ev.Predicted = map[hb.SitePair]string{}
		}
		if r.Classification != nil {
			for _, rr := range r.Classification.Races {
				record(rr.Sites, rr.Verdict.String())
			}
		}
		if r.Predicted.Classification != nil {
			for _, rr := range r.Predicted.Classification.Races {
				record(rr.Sites, rr.Verdict.String())
			}
		}
		for _, c := range r.Predicted.Report.Candidates {
			record(c.Sites, "unclassified")
		}
	}
}
