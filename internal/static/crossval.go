package static

import (
	"sort"

	"repro/internal/hb"
	"repro/internal/obs"
)

// DynamicEvidence is what the dynamic half of the pipeline observed for a
// program: which sites actually executed, and which site pairs the
// happens-before detector reported (with the replay classifier's verdict).
// core.CollectEvidence builds one from analyzed executions.
type DynamicEvidence struct {
	ObservedSites map[string]bool
	Races         map[hb.SitePair]string // site pair -> verdict string
	// Predicted is the prediction engine's race set (observed pairs plus
	// feasible reordered pairs), site pair -> verdict string. Nil when
	// the prediction stage did not run; cross-validation then reports
	// the observed engine only.
	Predicted map[hb.SitePair]string
}

// MatchState is the fate of one static candidate under cross-validation.
type MatchState string

const (
	// MatchMatched: the dynamic detector found a race at exactly this
	// site pair — a static true positive.
	MatchMatched MatchState = "matched"
	// MatchRefuted: both sites executed dynamically and no race was
	// observed — dynamic evidence against the candidate (a likely static
	// false positive, modulo unexplored interleavings).
	MatchRefuted MatchState = "refuted"
	// MatchUnmatched: at least one site never executed, so the dynamic
	// run says nothing about the candidate (a coverage gap, not a
	// refutation).
	MatchUnmatched MatchState = "unmatched"
)

// CheckedCandidate is a candidate plus its cross-validation outcome.
type CheckedCandidate struct {
	Candidate
	State   MatchState
	Verdict string // classifier verdict when matched
	// PredState is the candidate's fate against the prediction engine's
	// race set (empty when no predicted evidence was supplied). A
	// candidate the observed run refuted but prediction matched is the
	// interesting cell: a static positive dynamic testing would have
	// dismissed for scheduling reasons alone.
	PredState   MatchState
	PredVerdict string
}

// MissedRace is a dynamic race no static candidate covers — a static
// false negative, the failure mode the analyzer is designed against.
type MissedRace struct {
	Sites   hb.SitePair
	Verdict string
}

// CrossResult joins one program's static report against its dynamic
// evidence.
type CrossResult struct {
	Prog       string
	Candidates []CheckedCandidate
	Missed     []MissedRace
	Matched    int
	Refuted    int
	Unmatched  int

	// Predicted-engine tallies (populated only when DynamicEvidence
	// carried a Predicted map; HasPredicted distinguishes "engine ran
	// and agreed nowhere" from "engine never ran").
	HasPredicted  bool
	PredMatched   int
	PredRefuted   int
	PredUnmatched int
	PredMissed    []MissedRace
}

// CrossValidate joins static candidates against dynamic evidence,
// publishing static.matched / static.refuted / static.unmatched /
// static.missed counters into reg (nil is off).
func CrossValidate(rep *Report, ev DynamicEvidence, reg *obs.Registry) *CrossResult {
	out := &CrossResult{Prog: rep.Prog, HasPredicted: ev.Predicted != nil}
	covered := map[hb.SitePair]bool{}
	for _, c := range rep.Candidates {
		pair := hb.MakeSitePair(c.SiteA, c.SiteB)
		covered[pair] = true
		cc := CheckedCandidate{Candidate: c}
		if verdict, ok := ev.Races[pair]; ok {
			cc.State = MatchMatched
			cc.Verdict = verdict
			out.Matched++
		} else if ev.ObservedSites[c.SiteA] && ev.ObservedSites[c.SiteB] {
			cc.State = MatchRefuted
			out.Refuted++
		} else {
			cc.State = MatchUnmatched
			out.Unmatched++
		}
		if out.HasPredicted {
			if verdict, ok := ev.Predicted[pair]; ok {
				cc.PredState = MatchMatched
				cc.PredVerdict = verdict
				out.PredMatched++
			} else if ev.ObservedSites[c.SiteA] && ev.ObservedSites[c.SiteB] {
				cc.PredState = MatchRefuted
				out.PredRefuted++
			} else {
				cc.PredState = MatchUnmatched
				out.PredUnmatched++
			}
		}
		out.Candidates = append(out.Candidates, cc)
	}
	for pair, verdict := range ev.Races {
		if !covered[pair] {
			out.Missed = append(out.Missed, MissedRace{Sites: pair, Verdict: verdict})
		}
	}
	sortMissed(out.Missed)
	if out.HasPredicted {
		for pair, verdict := range ev.Predicted {
			if !covered[pair] {
				out.PredMissed = append(out.PredMissed, MissedRace{Sites: pair, Verdict: verdict})
			}
		}
		sortMissed(out.PredMissed)
	}
	if reg != nil {
		reg.Counter("static.matched").Add(uint64(out.Matched))
		reg.Counter("static.refuted").Add(uint64(out.Refuted))
		reg.Counter("static.unmatched").Add(uint64(out.Unmatched))
		reg.Counter("static.missed").Add(uint64(len(out.Missed)))
		if out.HasPredicted {
			reg.Counter("static.pred_matched").Add(uint64(out.PredMatched))
			reg.Counter("static.pred_refuted").Add(uint64(out.PredRefuted))
			reg.Counter("static.pred_unmatched").Add(uint64(out.PredUnmatched))
			reg.Counter("static.pred_missed").Add(uint64(len(out.PredMissed)))
		}
	}
	return out
}

func sortMissed(missed []MissedRace) {
	sort.Slice(missed, func(i, j int) bool {
		a, b := missed[i].Sites, missed[j].Sites
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
}
