// Package predict proposes feasible data races beyond the observed
// interleaving — the prediction stage of ROADMAP item 2, in the spirit
// of RV-Predict and "Data Race Prediction for Inaccurate Traces".
//
// The strict happens-before detector (internal/hb) only reports access
// pairs whose sequencing regions actually overlapped in the recording;
// pairs the scheduler happened to separate in time are silently ordered
// even when no synchronization orders them. This pass re-examines the
// decoded trace with the strict detector's own conflict search
// (hb.Search) and its own predicate on region pairs, in three stages:
//
//  1. Prefilter (lockset + weak happens-before): candidate pairs touch
//     the same address from different threads, at least one write,
//     neither atomic, with disjoint held-lock sets, and concurrent
//     under the *weak* happens-before order (hb.RegionClocks with
//     hb.Weak) — program order plus fork/join edges only. Dropping the
//     unlock→lock and atomic edges is what RV-Predict calls
//     must-happen-before: a lock-induced ordering is an accident of
//     which thread won the lock, not a constraint on reorderings.
//  2. Blocks: the search groups accesses into equivalence blocks — same
//     region, same PC, same address, same access kind (the held
//     lockset is constant within a region) — and one representative
//     pair per site pair stands in for the whole cross product, the
//     strict detector's one instance per (site pair, region pair,
//     address).
//  3. Window solver: each surviving region pair must admit a concrete
//     witness schedule inside a bounded window of the recorded region
//     schedule. The window is the search's reach: hb.Search never pairs
//     regions that neither overlap nor lie within it. An overlapping
//     pair is its own witness ("observed").
//     A separated pair (earlier, later) is feasible when the later
//     thread's intervening region chain can be hoisted to run directly
//     after the earlier racing region: every cross-thread weak-HB
//     predecessor of the chain (spawn of the thread, joined threads'
//     exits) already completed in the prefix, every lock the chain
//     holds is free right after the earlier region's opening
//     synchronization, and no skipped region's write
//     feeds an address the chain reads — so the recorded values remain
//     valid along the witness and the replayed live-ins are trustworthy.
//
// Feasible candidates carry real recorded regions and accesses, so they
// flow into the dual-order classifier (internal/classify) unchanged:
// predicted pairs get live-in fingerprints exactly like observed ones
// and share the memo cache. Everything here is a deterministic function
// of the execution — candidate order never depends on worker count.
package predict

import (
	"slices"
	"sort"

	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// DefaultWindow is the region-schedule distance the solver searches
// when Options.Window is zero. Pairs further apart are not examined:
// the further the hoist, the weaker the claim that the recorded values
// still describe the reordered run (see docs/PREDICT.md).
const DefaultWindow = 64

// Options tunes a prediction pass.
type Options struct {
	// Window is the conflict search's reach: the region-schedule
	// distance between the two racing regions of a reordered candidate
	// (0 = DefaultWindow). Observed (overlapping) pairs are reached at
	// any distance — they need no reordering.
	Window int
	// Metrics, when set, receives the predict.* counters. Nil is free.
	Metrics *obs.Registry
}

// Witness is the schedule evidence attached to a feasible candidate.
type Witness struct {
	// Kind is "observed" for pairs whose regions overlapped in the
	// recording, "reordered" for pairs the solver hoisted.
	Kind string
	// Regions lists the witness suffix as region Globals: the first
	// racing region, the hoisted chain of the later thread, then the
	// second racing region. The elided prefix is the recorded schedule up
	// to (excluding) the first racing region.
	Regions []int
}

// Candidate is one feasible predicted race pair. Instance points at the
// real recorded regions and accesses, so it classifies exactly like a
// detector instance.
type Candidate struct {
	Sites    hb.SitePair
	Instance hb.Instance
	Observed bool // the regions overlapped: the strict detector saw it too
	Witness  Witness
}

// Rejections counts window-solver verdicts against non-overlapping
// pairs inside the window, by the first constraint that failed.
type Rejections struct {
	WeakHB  int // a chain region's fork/join predecessor is not in the prefix
	Lockset int // a chain region needs a lock another thread holds at the hoist point
	Value   int // a skipped write feeds an address the chain reads
}

// Report is the prediction pass output for one execution.
type Report struct {
	Candidates []*Candidate // feasible pairs, sorted by site pair then regions
	Window     int          // requested window (a salvaged execution is searched at reach 0)

	PairsScreened int // conflicting block pairs of the region pairs that passed
	Blocks        int // access blocks formed
	Rejected      Rejections
}

// NewReport assembles the predicted-new candidates (site pairs absent
// from the observed report) into an hb.Report the classifier consumes
// unchanged: instances point at real recorded regions, so dual-order
// replay, fingerprinting, and the memo cache all apply as-is. Candidates
// are sorted by site pair, so each race's instances are consecutive and
// the races come out sorted.
func (r *Report) NewReport(observed *hb.Report) *hb.Report {
	rep := &hb.Report{}
	var race *hb.Race
	for _, c := range r.Candidates {
		if observed != nil && observed.Race(c.Sites) != nil {
			continue
		}
		if race == nil || race.Sites != c.Sites {
			race = &hb.Race{Sites: c.Sites}
			rep.Races = append(rep.Races, race)
		}
		race.Instances = append(race.Instances, c.Instance)
		rep.TotalInstances++
	}
	return rep
}

// regionInfo is the per-region precomputation the prefilter and the
// solver share. Regions share its slices, which are never written once
// built. precompute fills the lock fields; the address sets are built on
// first use (solver.sets), since only the regions of pairs the solver
// examines need them.
type regionInfo struct {
	held   []uint64    // locks held during the region, sorted
	heldAt []lockOwner // global lock table at region start
	reads  []uint64    // addresses read (non-atomic), sorted and distinct
	writes []uint64    // addresses written (non-atomic), sorted and distinct
	built  bool        // reads and writes are set
}

type lockOwner struct {
	addr uint64
	tid  int
}

// Run predicts feasible races over a replayed execution. It is
// independent of the strict detector's report: a candidate is Observed
// when its regions overlap, and callers use NewReport to subtract the
// observed set.
func Run(exec *replay.Execution, opts Options) *Report {
	window := opts.Window
	if window <= 0 {
		window = DefaultWindow
	}
	rep := &Report{Window: window}

	// Weak clocks drop the edge of a join met before the joined thread's
	// last region; the solver's fork/join check rejects such chains.
	weak, _ := hb.RegionClocks(exec, hb.Weak)
	sv := &solver{exec: exec, infos: precompute(exec), rej: &rep.Rejected}
	sv.spawnReg, sv.lastReg = forkJoinIndex(exec)

	// A salvaged log lost whole threads, and with them fork, join and
	// lock events that may order what survives, so it is searched at
	// reach 0: its observed pairs stay and nothing is reordered.
	reach := window
	if len(exec.Log.DroppedThreads) > 0 {
		reach = 0
	}

	// The strict detector's conflict search, reaching window regions
	// ahead, with the prefilter and the solver as its predicate. Weak-HB
	// concurrency, disjoint held locksets and the solver's verdict are
	// properties of the region pair (plus the racing address for the
	// value check), so they are decided once per pair, and every instance
	// emitted for the pair carries its witness.
	var wit Witness
	st := hb.Search(exec, reach, func(a, b *replay.Region, addr uint64) bool {
		if !hb.Concurrent(weak, a, b) || intersects(sv.infos[a.Global].held, sv.infos[b.Global].held) {
			return false
		}
		var ok bool
		wit, ok = sv.feasible(a, b, addr)
		return ok
	}, func(sites hb.SitePair, in hb.Instance) {
		rep.Candidates = append(rep.Candidates, &Candidate{
			Sites:    sites,
			Instance: in,
			Observed: wit.Kind == "observed",
			Witness:  wit,
		})
	})
	rep.Blocks, rep.PairsScreened = st.Blocks, st.BlockPairs

	sort.SliceStable(rep.Candidates, func(i, j int) bool {
		a, b := rep.Candidates[i], rep.Candidates[j]
		if a.Sites != b.Sites {
			return a.Sites.Less(b.Sites)
		}
		if a.Instance.RegionA.Global != b.Instance.RegionA.Global {
			return a.Instance.RegionA.Global < b.Instance.RegionA.Global
		}
		if a.Instance.RegionB.Global != b.Instance.RegionB.Global {
			return a.Instance.RegionB.Global < b.Instance.RegionB.Global
		}
		return a.Instance.Addr < b.Instance.Addr
	})

	if reg := opts.Metrics; reg != nil {
		reg.Counter("predict.executions").Inc()
		reg.Counter("predict.blocks").Add(uint64(rep.Blocks))
		reg.Counter("predict.pairs_screened").Add(uint64(rep.PairsScreened))
		reg.Counter("predict.candidates").Add(uint64(len(rep.Candidates)))
		observed := 0
		for _, c := range rep.Candidates {
			if c.Observed {
				observed++
			}
		}
		reg.Counter("predict.candidates_observed").Add(uint64(observed))
		reg.Counter("predict.candidates_reordered").Add(uint64(len(rep.Candidates) - observed))
		reg.Counter("predict.rejected_weakhb").Add(uint64(rep.Rejected.WeakHB))
		reg.Counter("predict.rejected_lockset").Add(uint64(rep.Rejected.Lockset))
		reg.Counter("predict.rejected_value").Add(uint64(rep.Rejected.Value))
		reg.Emit("predict.candidates", uint64(len(rep.Candidates)))
	}
	return rep
}

// solver is the window solver's view of one execution, plus region lists
// it reuses from one region pair to the next.
type solver struct {
	exec              *replay.Execution
	infos             []regionInfo
	addrs             []uint64 // backing array of the built address sets
	spawnReg, lastReg map[int]int
	rej               *Rejections
	hoisted, skipped  []*replay.Region
}

// sets returns r's info with its address sets built.
func (sv *solver) sets(r *replay.Region) *regionInfo {
	info := &sv.infos[r.Global]
	if !info.built {
		info.reads, sv.addrs = addrSet(sv.addrs, r.Accesses, false)
		info.writes, sv.addrs = addrSet(sv.addrs, r.Accesses, true)
		info.built = true
	}
	return info
}

// feasible decides whether the region pair (a, b), a earlier in the
// schedule, admits a witness schedule, and returns it. hb.Search hands
// it only pairs that overlap or lie within the window. Overlapping pairs
// are their own witness. Otherwise the later region's thread chain is
// hoisted to run directly after the earlier racing region; the checks
// are ordered cheapest-first and the first failure is counted.
func (sv *solver) feasible(a, b *replay.Region, addr uint64) (Witness, bool) {
	infos, rej := sv.infos, sv.rej
	if a.Overlaps(b) {
		return Witness{Kind: "observed", Regions: []int{a.Global, b.Global}}, true
	}

	// hoisted: b's thread's regions strictly between a and b in the
	// schedule (the chain), then b; skipped: everything else in that span
	// (including a's own thread's later regions — they are deferred past
	// the racing pair).
	hoisted, skipped := sv.hoisted[:0], sv.skipped[:0]
	for _, r := range sv.exec.Regions[a.Global+1 : b.Global] {
		if r.TID == b.TID {
			hoisted = append(hoisted, r)
		} else {
			skipped = append(skipped, r)
		}
	}
	hoisted = append(hoisted, b)
	sv.hoisted, sv.skipped = hoisted, skipped

	// Weak-HB: every cross-thread predecessor of the hoisted chain (and
	// of b itself) must already have completed in the prefix — the spawn
	// of b's thread, and the exit of any thread a chain region joins.
	for _, c := range hoisted {
		if c.StartKind == trace.SeqStart {
			if g, ok := sv.spawnReg[c.TID]; ok && g >= a.Global {
				rej.WeakHB++
				return Witness{}, false
			}
		}
		if c.JoinTarget >= 0 {
			if g, ok := sv.lastReg[c.JoinTarget]; !ok || g >= a.Global {
				rej.WeakHB++
				return Witness{}, false
			}
		}
	}

	// Lockset: every lock the chain (or b) holds must be free — or held
	// by b's own thread — at the hoist point. That is the lock table
	// after a's opening synchronization: the table at a's start, with a's
	// thread holding what it holds during a. A region opened by "lock m"
	// still holds m there, and one opened by "unlock m" has released it.
	ai := &infos[a.Global]
	for _, c := range hoisted {
		for _, l := range infos[c.Global].held {
			held := has(ai.held, l)
			for _, own := range ai.heldAt {
				if own.addr == l && own.tid != a.TID && own.tid != b.TID {
					held = true
				}
			}
			if held {
				rej.Lockset++
				return Witness{}, false
			}
		}
	}

	// Value consistency: hoisting must not change what any hoisted
	// region reads, or the recorded live-ins stop describing the witness
	// run. Chain regions ran after the skipped regions (and after a) in
	// the recording; in the witness they run before both, so no skipped
	// write — and no write of a — may feed a chain read. For b itself
	// the racing address is exempt: disagreement there is the race, and
	// the dual-order classifier replays both resolutions of it.
	aw := sv.sets(a).writes
	for _, c := range hoisted {
		for _, rd := range sv.sets(c).reads {
			fed := (c != b || rd != addr) && has(aw, rd)
			for _, s := range skipped {
				fed = fed || has(sv.sets(s).writes, rd)
			}
			if fed {
				rej.Value++
				return Witness{}, false
			}
		}
	}

	regions := append(make([]int, 0, len(hoisted)+1), a.Global)
	for _, c := range hoisted {
		regions = append(regions, c.Global)
	}
	return Witness{Kind: "reordered", Regions: regions}, true
}

// precompute walks the schedule once and fills the per-region lock facts
// the prefilter and solver consult: the held-lock set during the region
// and the global lock table at region start. Lock sets and tables change
// only at lock and unlock regions, so the regions between share them. A
// lock or unlock region updates its thread's set and the table
// copy-on-write, after taking the table its own start sees: a shared
// table is never appended to in place (its capacity is clipped first).
// The table's one reader, the solver's lockset check, does not depend on
// its order.
func precompute(exec *replay.Execution) []regionInfo {
	infos := make([]regionInfo, len(exec.Regions))
	heldBy := map[int][]uint64{} // tid -> sorted held locks
	var table []lockOwner
	for _, reg := range exec.Regions {
		info := &infos[reg.Global]
		info.heldAt = table
		held := heldBy[reg.TID]
		own := lockOwner{addr: reg.SyncAddr, tid: reg.TID}
		switch reg.StartKind {
		case trace.SeqLock:
			if next := insertSorted(held, own.addr); len(next) > len(held) {
				heldBy[reg.TID], held = next, next
				table = append(slices.Clip(table), own)
			}
		case trace.SeqUnlock:
			if next := removeSorted(held, own.addr); len(next) < len(held) {
				heldBy[reg.TID], held = next, next
				i := slices.Index(table, own)
				table = append(table[:i:i], table[i+1:]...)
			}
		}
		info.held = held
	}
	return infos
}

// addrSet appends the distinct addresses of the non-atomic writes (or
// reads) in accs to buf, sorted, and returns them with the grown buf.
func addrSet(buf []uint64, accs []replay.Access, writes bool) (set, grown []uint64) {
	lo := len(buf)
	for _, acc := range accs {
		if !acc.Atomic && acc.IsWrite == writes {
			buf = append(buf, acc.Addr)
		}
	}
	slices.Sort(buf[lo:])
	set = slices.Clip(slices.Compact(buf[lo:]))
	return set, buf[:lo+len(set)]
}

// has reports whether the sorted set holds v.
func has(set []uint64, v uint64) bool {
	_, found := slices.BinarySearch(set, v)
	return found
}

// forkJoinIndex returns, per thread, the Global of the region whose
// opening spawn created it, and the Global of its final region (the
// completion a join waits for).
func forkJoinIndex(exec *replay.Execution) (spawnReg, lastReg map[int]int) {
	spawnReg = map[int]int{}
	lastReg = map[int]int{}
	for _, reg := range exec.Regions {
		if reg.SpawnChild >= 0 {
			spawnReg[reg.SpawnChild] = reg.Global
		}
		lastReg[reg.TID] = reg.Global
	}
	return spawnReg, lastReg
}

// insertSorted returns s with v added. Earlier regions share s, so the
// result is a new slice.
func insertSorted(s []uint64, v uint64) []uint64 {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	return slices.Insert(slices.Clone(s), i, v)
}

// removeSorted returns s without v, as a new slice when v was present.
func removeSorted(s []uint64, v uint64) []uint64 {
	i, found := slices.BinarySearch(s, v)
	if !found {
		return s
	}
	return slices.Delete(slices.Clone(s), i, i+1)
}

// intersects reports whether the sorted sets a and b share an element.
func intersects(a, b []uint64) bool {
	return slices.ContainsFunc(a, func(v uint64) bool { return has(b, v) })
}
