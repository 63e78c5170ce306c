package classify

import (
	"sort"

	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/replay"
)

// LocksetVerdict is the replay checker's judgement of one lockset warning
// (§2.2.2: "our analysis can also be used for analyzing the data races
// reported by a lockset based algorithm ... The analysis should be able
// to filter out the benign data races and also the false positives").
type LocksetVerdict int

const (
	// LocksetFalsePositive: every conflicting access pair at the warned
	// address is ordered by a sequencer — the locking discipline was
	// violated, but no race exists.
	LocksetFalsePositive LocksetVerdict = iota
	// LocksetBenign: real races exist but every instance is
	// No-State-Change under dual-order replay.
	LocksetBenign
	// LocksetHarmful: some instance exposed a state change or replay
	// failure.
	LocksetHarmful
)

func (v LocksetVerdict) String() string {
	switch v {
	case LocksetFalsePositive:
		return "false-positive"
	case LocksetBenign:
		return "potentially-benign"
	case LocksetHarmful:
		return "potentially-harmful"
	}
	return "verdict(?)"
}

// LocksetTriage is the replay analysis of one lockset warning.
type LocksetTriage struct {
	Warning *lockset.Warning
	Verdict LocksetVerdict
	// OrderedPairs counts conflicting access pairs that a sequencer
	// orders (evidence toward false positive); RacyInstances counts the
	// genuinely unordered ones that were dual-order replayed.
	OrderedPairs  int
	RacyInstances int
	NSC, SC, RF   int
}

// TriageLockset runs the paper's replay checker over an Eraser report:
// for each warned address, every cross-thread conflicting access pair is
// either proven ordered (no race — the warning is a false positive for
// that pair) or replayed in both orders and classified. Each warning's
// racy pairs go through Run as one race, under opts.
func TriageLockset(exec *replay.Execution, rep *lockset.Report, opts Options) []LocksetTriage {
	// Group the execution's accesses by address once.
	type ref struct {
		acc replay.Access
		reg *replay.Region
	}
	byAddr := make(map[uint64][]ref)
	for _, reg := range exec.Regions {
		for _, acc := range reg.Accesses {
			if acc.Atomic {
				continue
			}
			byAddr[acc.Addr] = append(byAddr[acc.Addr], ref{acc, reg})
		}
	}

	var out []LocksetTriage
	for _, w := range rep.Warnings {
		tr := LocksetTriage{Warning: w}
		refs := byAddr[w.Addr]
		// One representative pair per (region pair): the same dedup the
		// happens-before detector applies.
		type pairKey struct{ a, b int }
		seen := make(map[pairKey]bool)
		var pairs []hb.Instance
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				a, b := refs[i], refs[j]
				if a.reg.TID == b.reg.TID {
					continue
				}
				if !a.acc.IsWrite && !b.acc.IsWrite {
					continue
				}
				if !a.reg.Overlaps(b.reg) {
					tr.OrderedPairs++
					continue
				}
				k := pairKey{a.reg.Global, b.reg.Global}
				if seen[k] {
					continue
				}
				seen[k] = true
				pairs = append(pairs, hb.Instance{
					First: a.acc, Second: b.acc,
					RegionA: a.reg, RegionB: b.reg, Addr: w.Addr,
				})
			}
		}
		// The racy pairs are one race to the classifier: Run replays
		// them in both orders, under the memo and the per-instance panic
		// guard every classification gets.
		if tr.RacyInstances = len(pairs); tr.RacyInstances > 0 {
			race := &hb.Race{Sites: hb.MakeSitePair(w.Site, w.OtherSite), Instances: pairs}
			rr := Run(exec, &hb.Report{Races: []*hb.Race{race}, TotalInstances: len(pairs)}, opts).Races[0]
			tr.NSC, tr.SC, tr.RF = rr.NSC, rr.SC, rr.RF
		}
		switch {
		case tr.RacyInstances == 0:
			tr.Verdict = LocksetFalsePositive
		case tr.SC == 0 && tr.RF == 0:
			tr.Verdict = LocksetBenign
		default:
			tr.Verdict = LocksetHarmful
		}
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Warning.Addr < out[j].Warning.Addr })
	return out
}
