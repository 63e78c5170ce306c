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
	mem := exec.Memory()
	var out []LocksetTriage
	for _, w := range rep.Warnings {
		tr := LocksetTriage{Warning: w}
		// The address's accesses in schedule order, atomic ones skipped
		// (they are synchronization, not data). One representative pair
		// per (region pair): the same dedup the happens-before detector
		// applies.
		refs := mem.Refs(w.Addr)
		type pairKey struct{ a, b int }
		seen := make(map[pairKey]bool)
		var pairs []hb.Instance
		for i, ri := range refs {
			ra := exec.Regions[ri.Region]
			a := &ra.Accesses[ri.Index]
			if a.Atomic {
				continue
			}
			for _, rj := range refs[i+1:] {
				rb := exec.Regions[rj.Region]
				b := &rb.Accesses[rj.Index]
				if b.Atomic || ra.TID == rb.TID || (!a.IsWrite && !b.IsWrite) {
					continue
				}
				if !ra.Overlaps(rb) {
					tr.OrderedPairs++
					continue
				}
				k := pairKey{ra.Global, rb.Global}
				if seen[k] {
					continue
				}
				seen[k] = true
				pairs = append(pairs, hb.Instance{
					First: *a, Second: *b,
					RegionA: ra, RegionB: rb, Addr: w.Addr,
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
