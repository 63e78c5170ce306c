package report

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/workloads"
)

// PredictedSection renders the prediction stage of a batch run: per
// execution, how many feasible candidate pairs the lockset + weak-HB
// solver emitted and how many of them the observed interleaving never
// exhibited, followed by the merged replay verdicts for those
// predicted-new races. A nil or empty Suite (no execution carries a
// prediction) renders as a one-line note.
type PredictedSection struct {
	Suite *workloads.SuitePredict
}

// Render produces the plain-text section.
func (s PredictedSection) Render() string {
	var b strings.Builder
	b.WriteString("Predicted races (lockset + weak-HB reordering, classified by replay)\n")
	if s.Suite == nil || len(s.Suite.Scenarios) == 0 {
		b.WriteString("  (prediction stage not run)\n")
		return b.String()
	}
	b.WriteString("  scenario          cand  observed  reordered  new\n")
	for _, row := range s.Suite.Scenarios {
		fmt.Fprintf(&b, "  %-16s  %4d  %8d  %9d  %3d\n",
			row.Label, row.Candidates, row.Observed, row.Reordered, row.New)
	}
	fmt.Fprintf(&b, "  total: %d candidates (%d observed, %d reordered) in a %d-region window\n",
		s.Suite.Candidates, s.Suite.Observed, s.Suite.Reordered, s.Suite.Window)
	if s.Suite.Merged == nil || len(s.Suite.Merged.Races) == 0 {
		b.WriteString("  no predicted-new races: every feasible pair already raced as recorded\n")
		return b.String()
	}
	benign, harmful := s.Suite.Merged.CountByVerdict()
	fmt.Fprintf(&b, "  predicted-new races: %d potentially benign, %d potentially harmful\n",
		benign, harmful)
	for _, r := range s.Suite.Merged.Races {
		fmt.Fprintf(&b, "    %s  [%s]  (%d instances, %d exposing)\n",
			r.Sites, r.Verdict, r.Total, r.Exposing())
	}
	return b.String()
}

// PredictedReport renders one execution's prediction stage in full:
// solver statistics, per-constraint rejection counts, and every
// predicted-new race with its replay verdict and witness schedule —
// the developer-facing output of `racer predict`.
func PredictedReport(p *core.Predicted) string {
	var b strings.Builder
	if p == nil {
		b.WriteString("prediction stage not run\n")
		return b.String()
	}
	rep := p.Report
	observed := 0
	for _, c := range rep.Candidates {
		if c.Observed {
			observed++
		}
	}
	fmt.Fprintf(&b, "prediction: %d feasible candidate pairs (%d observed, %d reordered) in a %d-region window\n",
		len(rep.Candidates), observed, len(rep.Candidates)-observed, rep.Window)
	fmt.Fprintf(&b, "  blocks: %d, pairs screened: %d\n", rep.Blocks, rep.PairsScreened)
	rj := rep.Rejected
	if rj.WeakHB+rj.Lockset+rj.Value > 0 {
		fmt.Fprintf(&b, "  rejected: %d weak-hb, %d lockset, %d value\n",
			rj.WeakHB, rj.Lockset, rj.Value)
	}
	if len(p.NewRaces.Races) == 0 {
		b.WriteString("no predicted-new races: every feasible pair already raced as recorded\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%d predicted-new races (feasible, never exhibited as recorded):\n",
		len(p.NewRaces.Races))
	verdicts := map[string]string{}
	if p.Classification != nil {
		for _, r := range p.Classification.Races {
			verdicts[r.Sites.String()] = r.Verdict.String()
		}
	}
	for _, race := range p.NewRaces.Races {
		verdict := verdicts[race.Sites.String()]
		if verdict == "" {
			verdict = "suppressed"
		}
		fmt.Fprintf(&b, "  %s  [%s]  (%d instances)\n", race.Sites, verdict, len(race.Instances))
		for _, c := range rep.Candidates {
			if c.Sites != race.Sites {
				continue
			}
			regions := make([]string, len(c.Witness.Regions))
			for i, g := range c.Witness.Regions {
				regions[i] = fmt.Sprint(g)
			}
			fmt.Fprintf(&b, "    witness (%s): regions %s\n", c.Witness.Kind, strings.Join(regions, " -> "))
			break
		}
	}
	return b.String()
}
