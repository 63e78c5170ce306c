// Package hb finds data races in a replayed execution.
//
// Every offline engine runs one conflict search (Search) over the
// execution's address index (replay.Execution.Memory, built once and
// shared): per address touched by two or more threads with at least one
// non-atomic write, it lists the regions that touched it and hands each
// cross-thread region pair inside the engine's horizon to a predicate,
// then emits one instance per conflicting site pair of each accepted
// pair. Three predicates use it:
//
//   - Detect is the paper's algorithm: two memory operations race when
//     they execute in overlapping sequencing regions of different
//     threads, touch the same address, at least one is a write, and
//     neither is a lock-prefixed access. Region overlap is exactly "no
//     sequencer orders the two operations", so the detector reports no
//     false positives with respect to the recorded execution.
//   - DetectVC is the vector-clock ablation: regions race when their
//     Strict clocks are concurrent. It can report races between regions
//     whose timestamp intervals happen to be disjoint even though no
//     synchronization separates them — pairs the interval test misses
//     (DESIGN.md, ablation A1).
//   - internal/predict passes Weak-clock concurrency, disjoint held
//     locksets and its window solver, and its window as the reach.
//
// RegionClocks is the one region-clock builder, over two edge sets:
// Strict (program order, fork/join, unlock→lock, atomics) and Weak
// (program order and fork/join only). Clocks are compared with
// FastTrack's constant-time epoch test (Concurrent).
package hb

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// SitePair is the unordered static identity of a race: the two instruction
// sites, ordered lexicographically so the same race keys identically in
// every scenario.
type SitePair struct {
	A, B string
}

// MakeSitePair normalizes the order of two sites.
func MakeSitePair(x, y string) SitePair {
	if y < x {
		x, y = y, x
	}
	return SitePair{A: x, B: y}
}

func (p SitePair) String() string { return p.A + " <-> " + p.B }

// Less orders site pairs lexicographically, the order reports list races in.
func (p SitePair) Less(q SitePair) bool { return p.A < q.A || p.A == q.A && p.B < q.B }

// Instance is one dynamic occurrence of a race: a specific pair of
// conflicting accesses in a specific pair of overlapping regions. First is
// the access from the region scheduled earlier; the recorded ("original")
// order is approximated as First-then-Second, and the classifier replays
// both orders regardless.
type Instance struct {
	First, Second    replay.Access
	RegionA, RegionB *replay.Region // regions of First and Second respectively
	Addr             uint64
}

// Race is a unique static data race with all its observed instances.
type Race struct {
	Sites     SitePair
	Instances []Instance
}

// Report is the detector output for one execution.
type Report struct {
	Races          []*Race
	TotalInstances int

	// index maps sites to races, built by the detector (or lazily on the
	// first Race call for hand-assembled reports) so per-candidate joins —
	// predict's Report.NewReport calls Race once per predicted candidate —
	// cost one map lookup instead of a linear scan over every race.
	index map[SitePair]*Race
}

// Race returns the race with the given site pair, or nil. The first call
// on a report whose index is unbuilt builds it, so Race is not safe for
// concurrent first use with hand-assembled reports (detector-built
// reports come pre-indexed).
func (r *Report) Race(sites SitePair) *Race {
	if r.index == nil {
		r.index = make(map[SitePair]*Race, len(r.Races))
		for _, race := range r.Races {
			r.index[race.Sites] = race
		}
	}
	return r.index[sites]
}

// Detect runs the paper's region-overlap detector over exec.
func Detect(exec *replay.Execution) *Report {
	return DetectInstrumented(exec, nil)
}

// DetectInstrumented is Detect with stage metrics: reg receives the
// detect.* counters (addresses indexed, region pairs examined vs.
// conflicting, races and instances found). Nil reg is free.
func DetectInstrumented(exec *replay.Execution, reg *obs.Registry) *Report {
	return detect(exec, 0, func(a, b *replay.Region, _ uint64) bool { return a.Overlaps(b) }, reg)
}

// DetectVC runs the vector-clock variant: regions get Strict clocks from
// the synchronization structure, and conflicting accesses in concurrent
// regions race. reg receives the same detect.* counters as
// DetectInstrumented (nil is off). Strict-clock concurrency is not
// monotone in schedule order, so the search reaches every later region.
func DetectVC(exec *replay.Execution, reg *obs.Registry) (*Report, error) {
	clocks, err := RegionClocks(exec, Strict)
	if err != nil {
		return nil, err
	}
	return detect(exec, len(exec.Regions), func(a, b *replay.Region, _ uint64) bool { return Concurrent(clocks, a, b) }, reg), nil
}

// detect collects Search's instances into a report, one race per site
// pair, and publishes the detect.* counters.
func detect(exec *replay.Execution, reach int, pass func(a, b *replay.Region, addr uint64) bool, reg *obs.Registry) *Report {
	races := make(map[SitePair]*Race)
	total := 0
	st := Search(exec, reach, pass, func(sites SitePair, in Instance) {
		race := races[sites]
		if race == nil {
			race = &Race{Sites: sites}
			races[sites] = race
		}
		race.Instances = append(race.Instances, in)
		total++
	})
	if reg != nil {
		reg.Counter("detect.executions").Inc()
		reg.Counter("detect.addresses_indexed").Add(uint64(st.Addresses))
		reg.Counter("detect.addresses_screened_out").Add(uint64(st.ScreenedOut))
		reg.Counter("detect.region_pairs_examined").Add(uint64(st.RegionPairs))
		reg.Counter("detect.region_pairs_conflicting").Add(uint64(st.Passed))
		reg.Counter("detect.races").Add(uint64(len(races)))
		reg.Counter("detect.instances").Add(uint64(total))
		reg.Emit("detect.races", uint64(len(races)))
	}
	rep := &Report{TotalInstances: total, index: races}
	for _, race := range races {
		rep.Races = append(rep.Races, race)
	}
	sort.Slice(rep.Races, func(i, j int) bool { return rep.Races[i].Sites.Less(rep.Races[j].Sites) })
	return rep
}

// SearchStats counts one conflict search.
type SearchStats struct {
	Addresses   int // distinct addresses accessed non-atomically
	ScreenedOut int // of those, touched by one thread or never written
	RegionPairs int // region pairs at the surviving addresses, n(n-1)/2 per address
	Visited     int // of those, the pairs inside the horizon
	Passed      int // cross-thread region pairs the predicate accepted
	Blocks      int // (region, pc, kind) blocks at the surviving addresses
	BlockPairs  int // conflicting block pairs of the accepted region pairs
}

// Search is the conflict search every offline engine shares. It reads
// the execution's per-address index (exec.Memory(), built on first use
// and shared with the other engines and the classifier), whose screen
// keeps only addresses touched non-atomically by two or more threads
// with at least one non-atomic write. Each surviving address's regions
// are paired in schedule order, and every cross-thread pair (a before b)
// inside the horizon goes to pass. The horizon admits b while it starts
// before a ends (the two may overlap) or lies at most reach regions
// after a. Regions are sorted by StartTS, so the first b past both
// bounds ends a's pairs: reach 0 visits exactly the pairs that can
// overlap, and len(exec.Regions) visits every pair.
//
// For each pair pass accepts, emit receives one instance per conflicting
// site pair (write/write, write/read, read/write), with First from a and
// Second from b, before pass sees the next pair; so a caller can attach
// what its predicate found to the pair's instances. Within a region, the
// non-atomic accesses to the address collapse to one block per (pc,
// kind), its first access, and the first block pair of each site pair
// stands for the rest; a region whose accesses to the address are all
// atomic takes no part. Addresses go in ascending order, so the emission
// order is deterministic.
//
// An address's accesses are in schedule order in the index, and one
// region's are contiguous, so grouping by region is run-splitting over
// a sorted slice, and the site-pair dedup is a linear scan over the
// handful of site pairs one region pair can emit (no global map churn).
func Search(exec *replay.Execution, reach int, pass func(a, b *replay.Region, addr uint64) bool, emit func(SitePair, Instance)) SearchStats {
	mem := exec.Memory()
	addrs, data := mem.Screen()
	st := SearchStats{Addresses: data, ScreenedOut: data - len(addrs)}

	// Scratch reused across addresses: per-region blocks (reads and
	// writes in shared backing buffers, in first-access order) and the
	// per-region-pair site dedup list.
	type group struct {
		reg      *replay.Region
		rLo, rHi int // range into reads
		wLo, wHi int // range into writes
	}
	var groups []group
	var reads, writes []replay.Access
	var emitted []SitePair

	// Only the PCs of conflicting block pairs get a site string, each
	// formatted once (sites.go).
	memo := siteMemo{prog: exec.Prog}

	for _, addr := range addrs {
		refs := mem.Refs(addr)
		groups, reads, writes = groups[:0], reads[:0], writes[:0]
		for i := 0; i < len(refs); {
			g := group{reg: exec.Regions[refs[i].Region], rLo: len(reads), wLo: len(writes)}
			for ; i < len(refs) && int(refs[i].Region) == g.reg.Global; i++ {
				switch acc := g.reg.Accesses[refs[i].Index]; {
				case acc.Atomic: // synchronization, not data
				case acc.IsWrite:
					writes = addBlock(writes, g.wLo, acc)
				default:
					reads = addBlock(reads, g.rLo, acc)
				}
			}
			g.rHi, g.wHi = len(reads), len(writes)
			if g.rHi > g.rLo || g.wHi > g.wLo {
				groups = append(groups, g)
			}
		}
		st.Blocks += len(reads) + len(writes)
		st.RegionPairs += len(groups) * (len(groups) - 1) / 2

		for i := range groups {
			ga := &groups[i]
			for j := i + 1; j < len(groups); j++ {
				gb := &groups[j]
				if gb.reg.StartTS >= ga.reg.EndTS && gb.reg.Global-ga.reg.Global > reach {
					break
				}
				st.Visited++
				if ga.reg.TID == gb.reg.TID || !pass(ga.reg, gb.reg, addr) {
					continue
				}
				st.Passed++
				emitted = emitted[:0]
				pair := func(a, b replay.Access) {
					st.BlockPairs++
					sites := MakeSitePair(memo.site(a.PC), memo.site(b.PC))
					for _, e := range emitted {
						if e == sites {
							return
						}
					}
					emitted = append(emitted, sites)
					emit(sites, Instance{First: a, Second: b, RegionA: ga.reg, RegionB: gb.reg, Addr: addr})
				}
				for _, w := range writes[ga.wLo:ga.wHi] {
					for _, x := range writes[gb.wLo:gb.wHi] {
						pair(w, x)
					}
					for _, r := range reads[gb.rLo:gb.rHi] {
						pair(w, r)
					}
				}
				for _, r := range reads[ga.rLo:ga.rHi] {
					for _, w := range writes[gb.wLo:gb.wHi] {
						pair(r, w)
					}
				}
			}
		}
	}
	return st
}

// addBlock appends acc to blocks unless blocks[lo:], the current
// region's blocks of acc's kind, already holds its pc.
func addBlock(blocks []replay.Access, lo int, acc replay.Access) []replay.Access {
	for _, b := range blocks[lo:] {
		if b.PC == acc.PC {
			return blocks
		}
	}
	return append(blocks, acc)
}

// Edges selects the synchronization edges RegionClocks orders regions by.
type Edges int

const (
	// Strict is the recorded execution's happens-before order: program
	// order, spawn → child start, child end → join, unlock → later lock
	// of the same address, and atomics on the same address in timestamp
	// order.
	Strict Edges = iota
	// Weak keeps program order and fork/join only. Lock and atomic
	// orderings are accidents of the schedule that a reordering may undo.
	Weak
)

// RegionClocks computes one vector clock per region (indexed by
// Region.Global) from the synchronization events the replay annotated,
// over the given edge set. Each region ticks its own thread's component
// once, so Concurrent's epoch test is exact on the result. A join met
// before the joined thread's last region loses its edge, and the first
// such join is returned as the error alongside the clocks.
func RegionClocks(exec *replay.Execution, edges Edges) ([]vclock.VC, error) {
	width := 0
	for _, t := range exec.Threads {
		width = max(width, t.TID+1)
	}
	// parent maps a spawned thread to its spawner. The child's first
	// region sorts before the parent's spawn region, so when it comes up
	// the parent's newest clock is exactly its pre-spawn clock.
	parent := make(map[int]int)
	for _, reg := range exec.Regions {
		if reg.SpawnChild >= 0 {
			parent[reg.SpawnChild] = reg.TID
		}
	}
	clocks := make([]vclock.VC, len(exec.Regions))
	slab := make(vclock.VC, len(exec.Regions)*width) // every region clock, one allocation
	last := make(map[int]vclock.VC, width)           // tid -> newest region clock
	ended := make(map[int]vclock.VC, width)          // tid -> final region clock
	release := make(map[uint64]vclock.VC)            // lock addr -> clock before the unlock
	atomics := make(map[uint64]vclock.VC)            // atomic addr -> last atomic region clock
	var err error
	for _, reg := range exec.Regions {
		lo := reg.Global * width
		vc := slab[lo : lo+width : lo+width]
		prev := last[reg.TID]
		copy(vc, prev)
		switch reg.StartKind {
		case trace.SeqStart:
			if p, ok := parent[reg.TID]; ok {
				vc = vc.Join(last[p])
			}
		case trace.SeqLock:
			if edges == Strict {
				vc = vc.Join(release[reg.SyncAddr])
			}
		case trace.SeqUnlock:
			// The release carries everything before the unlock.
			release[reg.SyncAddr] = prev
		case trace.SeqAtomic:
			// Acquire-release on the atomic's address.
			if edges == Strict {
				vc = vc.Join(atomics[reg.SyncAddr])
			}
		case trace.SeqSyscall:
			if reg.JoinTarget >= 0 {
				if end, ok := ended[reg.JoinTarget]; ok {
					vc = vc.Join(end)
				} else if err == nil {
					err = fmt.Errorf("hb: join of thread %d before its regions were processed", reg.JoinTarget)
				}
			}
		}
		vc = vc.Tick(reg.TID)
		if reg.StartKind == trace.SeqAtomic {
			atomics[reg.SyncAddr] = vc
		}
		clocks[reg.Global] = vc
		last[reg.TID] = vc
		if reg.EndKind == trace.SeqEnd {
			ended[reg.TID] = vc
		}
	}
	return clocks, err
}

// Concurrent reports whether regions a and b of different threads are
// unordered by clocks (from RegionClocks). It is FastTrack's epoch test
// (Flanagan & Freund, PLDI 2009): a region's epoch is its thread and that
// thread's own clock component in the region, and a region happens before
// (or is) every region whose clock covers its epoch, which is exact for
// clocks that tick their own thread once per region, as RegionClocks'
// do. So the test reads four clock components, where
// vclock.VC.Concurrent compares whole clocks.
func Concurrent(clocks []vclock.VC, a, b *replay.Region) bool {
	ca, cb := clocks[a.Global], clocks[b.Global]
	return ca.At(a.TID) > cb.At(a.TID) && cb.At(b.TID) > ca.At(b.TID)
}
