// Package report renders the paper's evaluation artifacts — Table 1
// (classification matrix), Table 2 (benign-race census), Figures 3–5
// (per-race instance statistics) — and the per-race reproduction reports
// the tool hands to developers (§4.4, §5).
package report

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/classify"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Truth resolves a race to its ground-truth verdict and benign category.
// The workload suite provides one; a deployment on unknown programs would
// not have it (the paper needed manual triage to build theirs).
type Truth func(sites string) (realHarmful bool, category workloads.Category, known bool)

// SuiteTruth is the Truth oracle for the built-in workload suite.
func SuiteTruth(site string) (bool, workloads.Category, bool) {
	tm := workloads.TemplateOfSite(site)
	if tm == nil {
		return false, 0, false
	}
	return tm.RealHarmful, tm.Category, true
}

// Table1 is the classification matrix of §5.2.2.
type Table1 struct {
	// Rows indexed by classify.Group; columns split by ground truth.
	RB, RH [3]int // real-benign / real-harmful counts per group
	// Unknown counts races the truth oracle cannot label.
	Unknown int
}

// BuildTable1 folds a merged classification into the Table 1 matrix.
func BuildTable1(c *classify.Classification, truth Truth) Table1 {
	var t Table1
	for _, r := range c.Races {
		harmful, _, known := truth(r.Sites.A)
		if !known {
			t.Unknown++
			continue
		}
		if harmful {
			t.RH[r.Group]++
		} else {
			t.RB[r.Group]++
		}
	}
	return t
}

// PotentiallyBenign returns the potentially-benign column totals.
func (t Table1) PotentiallyBenign() (rb, rh int) {
	return t.RB[classify.GroupNoStateChange], t.RH[classify.GroupNoStateChange]
}

// PotentiallyHarmful returns the potentially-harmful column totals.
func (t Table1) PotentiallyHarmful() (rb, rh int) {
	rb = t.RB[classify.GroupStateChange] + t.RB[classify.GroupReplayFailure]
	rh = t.RH[classify.GroupStateChange] + t.RH[classify.GroupReplayFailure]
	return
}

// Total is the number of classified races.
func (t Table1) Total() int {
	n := t.Unknown
	for g := 0; g < 3; g++ {
		n += t.RB[g] + t.RH[g]
	}
	return n
}

// Render prints the matrix in the paper's layout.
func (t Table1) Render() string {
	var b strings.Builder
	b.WriteString("Table 1. Data Race Classification\n")
	b.WriteString("                      | Potentially Benign | Potentially Harmful |\n")
	b.WriteString("                      | RealBenign RealHarm| RealBenign RealHarm | Total\n")
	row := func(name string, g classify.Group) {
		rb, rh := t.RB[g], t.RH[g]
		if g == classify.GroupNoStateChange {
			fmt.Fprintf(&b, "  %-18s  | %10d %8d | %10s %8s | %5d\n", name, rb, rh, "-", "-", rb+rh)
		} else {
			fmt.Fprintf(&b, "  %-18s  | %10s %8s | %10d %8d | %5d\n", name, "-", "-", rb, rh, rb+rh)
		}
	}
	row("No State Change", classify.GroupNoStateChange)
	row("State Change", classify.GroupStateChange)
	row("Replay Failure", classify.GroupReplayFailure)
	pbRB, pbRH := t.PotentiallyBenign()
	phRB, phRH := t.PotentiallyHarmful()
	fmt.Fprintf(&b, "  %-18s  | %10d %8d | %10d %8d | %5d\n",
		"Total", pbRB, pbRH, phRB, phRH, t.Total())
	if t.Unknown > 0 {
		fmt.Fprintf(&b, "  (%d races have no ground-truth label and are excluded from the rows)\n", t.Unknown)
	}
	return b.String()
}

// Table2 is the benign-race census by category (§5.4).
type Table2 struct {
	Counts map[workloads.Category]int
}

// BuildTable2 counts real-benign races per category.
func BuildTable2(c *classify.Classification, truth Truth) Table2 {
	t := Table2{Counts: make(map[workloads.Category]int)}
	for _, r := range c.Races {
		harmful, cat, known := truth(r.Sites.A)
		if !known || harmful {
			continue
		}
		t.Counts[cat]++
	}
	return t
}

// Render prints the census in the paper's order.
func (t Table2) Render() string {
	order := []workloads.Category{
		workloads.CatUserSync, workloads.CatDoubleCheck, workloads.CatBothValid,
		workloads.CatRedundantWrite, workloads.CatDisjointBits, workloads.CatApprox,
	}
	var b strings.Builder
	b.WriteString("Table 2. Benign Data Races\n")
	total := 0
	for _, cat := range order {
		fmt.Fprintf(&b, "  %-34s %4d\n", cat.String(), t.Counts[cat])
		total += t.Counts[cat]
	}
	fmt.Fprintf(&b, "  %-34s %4d\n", "Total", total)
	return b.String()
}

// FigureRow is one bar of Figures 3–5: a race with its instance counts.
type FigureRow struct {
	Sites     string
	Total     int
	Exposing  int // State-Change or Replay-Failure instances
	SC, RF    int
	Harmful   bool
	Category  workloads.Category
	HasTruth  bool
	Verdict   classify.Verdict
	GroupName string
}

// Figure is a per-race instance-count series.
type Figure struct {
	Title string
	Rows  []FigureRow
}

// BuildFigure3 collects the potentially-benign races (every instance
// No-State-Change) with their instance counts.
func BuildFigure3(c *classify.Classification, truth Truth) Figure {
	return buildFigure(c, truth, "Figure 3. Instances of races classified Potentially-Benign",
		func(r *classify.RaceResult, harmful bool) bool {
			return r.Verdict == classify.PotentiallyBenign
		})
}

// BuildFigure4 collects the potentially-harmful races that are really
// harmful, with total and exposing instance counts.
func BuildFigure4(c *classify.Classification, truth Truth) Figure {
	return buildFigure(c, truth, "Figure 4. Instances of Potentially-Harmful races that are Real-Harmful",
		func(r *classify.RaceResult, harmful bool) bool {
			return r.Verdict == classify.PotentiallyHarmful && harmful
		})
}

// BuildFigure5 collects the misclassified races: potentially harmful but
// actually benign (§5.2.4).
func BuildFigure5(c *classify.Classification, truth Truth) Figure {
	return buildFigure(c, truth, "Figure 5. Instances of Potentially-Harmful races that are Real-Benign",
		func(r *classify.RaceResult, harmful bool) bool {
			return r.Verdict == classify.PotentiallyHarmful && !harmful
		})
}

func buildFigure(c *classify.Classification, truth Truth, title string,
	include func(*classify.RaceResult, bool) bool) Figure {
	fig := Figure{Title: title}
	for _, r := range c.Races {
		harmful, cat, known := truth(r.Sites.A)
		if !include(r, harmful && known) {
			continue
		}
		fig.Rows = append(fig.Rows, FigureRow{
			Sites:     r.Sites.String(),
			Total:     r.Total,
			Exposing:  r.Exposing(),
			SC:        r.SC,
			RF:        r.RF,
			Harmful:   harmful,
			Category:  cat,
			HasTruth:  known,
			Verdict:   r.Verdict,
			GroupName: r.Group.String(),
		})
	}
	sort.Slice(fig.Rows, func(i, j int) bool {
		if fig.Rows[i].Total != fig.Rows[j].Total {
			return fig.Rows[i].Total > fig.Rows[j].Total
		}
		return fig.Rows[i].Sites < fig.Rows[j].Sites
	})
	return fig
}

// InstanceStats summarizes the per-race instance counts of the figure.
func (f Figure) InstanceStats() stats.Summary {
	xs := make([]int, len(f.Rows))
	for i, r := range f.Rows {
		xs[i] = r.Total
	}
	return stats.Summarize(xs)
}

// Render prints the figure as an ASCII bar series (instances per race).
func (f Figure) Render() string {
	var b strings.Builder
	b.WriteString(f.Title + "\n")
	if len(f.Rows) > 0 {
		b.WriteString("  instances per race: " + f.InstanceStats().String() + "\n")
	}
	maxN := 1
	for _, r := range f.Rows {
		if r.Total > maxN {
			maxN = r.Total
		}
	}
	for i, r := range f.Rows {
		bar := strings.Repeat("#", stats.Bar(r.Total, maxN, 40))
		exp := ""
		if r.Exposing > 0 && r.Exposing != r.Total {
			exp = fmt.Sprintf("  (exposing %d: %d sc, %d rf)", r.Exposing, r.SC, r.RF)
		}
		fmt.Fprintf(&b, "  %2d %-46s %5d %-40s%s\n", i+1, r.Sites, r.Total, bar, exp)
	}
	if len(f.Rows) == 0 {
		b.WriteString("  (no races)\n")
	}
	return b.String()
}

// RaceReport renders the developer-facing report for one race: verdict,
// instance statistics, and a reproducible scenario per retained sample —
// the "two replays" information of §4.4.
func RaceReport(r *classify.RaceResult, truth Truth) string {
	var b strings.Builder
	fmt.Fprintf(&b, "race %s\n", r.Sites)
	fmt.Fprintf(&b, "  verdict: %v (group %v)\n", r.Verdict, r.Group)
	if r.Suppressed {
		b.WriteString("  suppressed: marked benign by a developer in the race database\n")
	}
	if truth != nil {
		if harmful, cat, known := truth(r.Sites.A); known {
			verdictStr := "benign"
			if harmful {
				verdictStr = "HARMFUL"
			}
			fmt.Fprintf(&b, "  ground truth: %s (%v)\n", verdictStr, cat)
		}
	}
	fmt.Fprintf(&b, "  instances: %d total = %d no-state-change, %d state-change, %d replay-failure\n",
		r.Total, r.NSC, r.SC, r.RF)
	if r.Verdict == classify.PotentiallyBenign {
		fmt.Fprintf(&b, "  confidence: %s (%d supporting instances; see more scenarios to raise it)\n",
			r.Confidence(), r.Total)
	}
	for i, s := range r.Samples {
		fmt.Fprintf(&b, "  sample %d: scenario %s (seed %d), threads %d/%d, addr 0x%x, outcome %v\n",
			i+1, s.Scenario, s.Seed, s.TIDA, s.TIDB, s.Addr, s.Outcome)
		fmt.Fprintf(&b, "    racing ops: tid %d idx %d pc %d (write=%v)  <->  tid %d idx %d pc %d (write=%v)\n",
			s.TIDA, s.IdxA, s.PCA, s.FirstIsWrite, s.TIDB, s.IdxB, s.PCB, s.SecondWrite)
		if s.FailReason != "" {
			fmt.Fprintf(&b, "    failure: %s\n", s.FailReason)
		}
		for _, d := range s.Diffs {
			fmt.Fprintf(&b, "    diff: %s\n", d)
		}
		fmt.Fprintf(&b, "    reproduce: %s\n", reproduceCommand(s.Scenario, s.Seed, r.Sites.String()))
	}
	return b.String()
}

// Summary is the one-paragraph wrap-up the paper's conclusion gives:
// how many races were filtered and whether every harmful race survived.
func Summary(c *classify.Classification, truth Truth) string {
	t1 := BuildTable1(c, truth)
	pbRB, pbRH := t1.PotentiallyBenign()
	phRB, phRH := t1.PotentiallyHarmful()
	totBenign := pbRB + phRB
	var b strings.Builder
	fmt.Fprintf(&b, "unique races: %d (%d instances analyzed)\n", t1.Total(), c.TotalInstances())
	fmt.Fprintf(&b, "potentially benign: %d (%.0f%% of all races)\n",
		pbRB+pbRH, pct(pbRB+pbRH, t1.Total()))
	if totBenign > 0 {
		fmt.Fprintf(&b, "benign races filtered from triage: %d of %d (%.0f%%)\n",
			pbRB, totBenign, pct(pbRB, totBenign))
	}
	suppressed := 0
	for _, r := range c.Races {
		if r.Suppressed {
			suppressed++
		}
	}
	if suppressed > 0 {
		fmt.Fprintf(&b, "suppressed by the race database: %d (triaged benign by a developer)\n", suppressed)
	}
	_, reported := c.CountByVerdict()
	fmt.Fprintf(&b, "reported for triage: %d (%d real bugs among them)\n", reported, phRH)
	if pbRH == 0 {
		b.WriteString("every real-harmful race was classified potentially harmful\n")
	} else {
		fmt.Fprintf(&b, "WARNING: %d real-harmful races were filtered as potentially benign\n", pbRH)
	}
	return b.String()
}

// scenarioBase strips the "#k" seed suffix a multi-seed RunSuite
// appends, so the reproduce command line resolves to a real scenario
// name.
func scenarioBase(name string) string {
	if i := strings.IndexByte(name, '#'); i > 0 {
		return name[:i]
	}
	return name
}

// reproduceCommand names the racer command that replays a sample's race
// in both orders: `racer scenario` when the sample's label, less its
// seed suffix, is a built-in scenario, and `racer classify` when the
// label is a recorded log (every log writer names its files *.rlog).
// Any other label names an execution analyzed in memory, which has no
// log to replay until racer record writes one.
func reproduceCommand(label string, seed int64, sites string) string {
	if base := scenarioBase(label); builtinScenarios()[base] {
		return fmt.Sprintf("racer scenario -name %s -seed %d -race '%s'", base, seed, sites)
	}
	if strings.HasSuffix(label, ".rlog") {
		return fmt.Sprintf("racer classify -race '%s' %s", sites, label)
	}
	return fmt.Sprintf("no recorded log to replay; racer record -seed %d writes one for racer classify -race '%s'", seed, sites)
}

// builtinScenarios holds the names workloads.FindScenario resolves. It
// is gathered once, since resolving a name builds every scenario's
// templates.
var builtinScenarios = sync.OnceValue(func() map[string]bool {
	names := map[string]bool{}
	for _, s := range append(workloads.Scenarios(), workloads.BrowseScenario(), workloads.ServiceScenario()) {
		names[s.Name] = true
	}
	return names
})

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
