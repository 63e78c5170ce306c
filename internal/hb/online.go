package hb

import (
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Online runs the paper's region-overlap race check *while the program
// executes*, in the style of Ronsse & De Bosschere's on-the-fly
// detectors, so a recording ends with a raced/race-free verdict and can
// stop at the first race. The verdict is a report on the recording only:
// the offline analysis replays every log whatever it says. The recorder
// (internal/record) feeds it: after its own work on each machine event it
// passes on the thread starts and ends, the sequencers and the data
// accesses, reduced to the fields the check reads.
//
// The decisive test is exactly the offline one: two data accesses race
// when their sequencing regions (the intervals between consecutive
// sequencer timestamps on each thread) overlap, the threads differ, at
// least one access is a write, and neither is atomic. Regions are
// maintained incrementally from the same events the recorder logs, so
// the online verdict matches Detect on the recorded log by construction:
//
//   - both regions still open  => their intervals overlap (each started
//     before the other has ended);
//   - stored region closed [s,e) vs the current access's open region
//     starting at c => they overlap iff c < e, because timestamps are
//     strictly increasing (the stored region began before the current one
//     ends, whenever the current one ends).
//
// Every offline pair is screened online when its later access executes,
// so "no race found online" and "no race found offline" coincide.
//
// Epochs, after FastTrack (Flanagan & Freund, PLDI 2009). Each thread
// keeps one vector clock (internal/vclock), ticked at its own sequencers
// and joined from the parent's at spawn. A region carries only its epoch
// — its thread and that thread's own clock component when it opened —
// and its [start, end) interval. A screened pair is pruned when the
// stored region's epoch is covered by the current thread's clock
// (epoch.before, the test the offline engines' Concurrent uses),
// counted on detect.online.hb_pruned. Happens-before implies the regions do not
// overlap, so the prune is sound and the interval test above still
// decides every verdict.
//
// Newest-region records. The window holds one record per (address,
// thread, pc, kind), moved in place to the newest region in which the
// thread made that access. A thread's newer region follows its older one
// in program order and ends later, so any access that overlaps the older
// region overlaps the newer one too, with the same site pair: keeping
// only the newest loses no race and leaves the set of site pairs found at
// each access unchanged. Within one access, pairs are found in the
// window's record order, which is deterministic.
//
// The window is laid out in 64-word pages of per-word record lists
// behind a one-page cache, as the recorder's per-thread views are, so a
// run of accesses to nearby words reads the page map once and an access
// writes it only when it touches a new page. A watermark sweep keeps it
// bounded: a closed region whose end falls at or below the minimum
// open-region start across live threads can overlap no future access,
// and its records are evicted, along with pages left empty (and the
// cache, which may name one of them). The watermark never falls, and every
// region that closes after a sweep ends above it, so the sweep,
// considered every sweepEvery sequencers, runs only when the watermark
// has moved since the previous one.
type Online struct {
	sites siteMemo // filled only by foundRace
	reg   *obs.Registry

	stopOnRace bool
	stop       bool

	threads []onlineThread         // indexed by tid
	regions []onlineRegion         // every region opened so far (one per sequencer), by region id
	window  map[uint64]*windowPage // page number -> per-word record lists
	lastPN  uint64                 // page number of last; ^0 matches no address
	last    *windowPage            // the window's last page used, cleared by sweep
	recs    int                    // total records across the window

	// spawned links a spawn edge: ThreadStarted(child, startTS) arrives
	// inside the parent's spawn instruction, before the parent's
	// Sequencer with ts == startTS, so the child waits here (-1: none)
	// until the parent's clock is known.
	spawned int

	races      map[SitePair]struct{}
	raceOrder  []SitePair
	seqs       uint64 // sequencer events, drives the eviction sweep
	watermark  uint64 // watermark of the last sweep
	checked    uint64 // candidate pairs screened
	hbPruned   uint64 // pairs skipped because the epoch test ordered them
	evicted    uint64 // records reclaimed by watermark sweeps
	sweeps     uint64
	windowPeak int
}

// onlineRegion is one sequencing region: the half-open timestamp interval
// [start, end) a thread executes between two of its sequencers, and its
// epoch: the thread and the thread's own clock component in the region.
type onlineRegion struct {
	epoch
	start uint64
	end   uint64 // 0 while the region is open
}

// onlineRec is one access record in the window: thread tid accessed the
// record's address at pc, most recently in region.
type onlineRec struct {
	region  int // index into Online.regions
	pc      int
	tid     int32
	isWrite bool
}

type onlineThread struct {
	started bool
	ended   bool
	region  int       // current region id
	start   uint64    // current region's start
	vc      vclock.VC // vc[tid] is the current region's epoch clock
}

const (
	windowPageShift = 6
	windowPageWords = 1 << windowPageShift
	windowPageMask  = windowPageWords - 1
)

// windowPage holds the records of windowPageWords consecutive addresses.
type windowPage [windowPageWords][]onlineRec

// sweepEvery is the eviction cadence in sequencer events. Sweeps are
// driven by event counts, never wall time, so runs remain deterministic.
const sweepEvery = 64

// maxOnlineRaces bounds the distinct site pairs retained for the report;
// the boolean verdict is unaffected once the cap is hit.
const maxOnlineRaces = 1024

// NewOnline builds an online detector for prog. reg may be nil (metrics
// off). stopOnRace makes StopRequested return true once a race is seen;
// the recorder relays it to the machine, which polls at quantum
// boundaries.
func NewOnline(prog *isa.Program, reg *obs.Registry, stopOnRace bool) *Online {
	return &Online{
		sites:      siteMemo{prog: prog},
		reg:        reg,
		stopOnRace: stopOnRace,
		window:     make(map[uint64]*windowPage),
		lastPN:     ^uint64(0),
		spawned:    -1,
		races:      make(map[SitePair]struct{}),
	}
}

// thread returns tid's state, or nil for a thread never started.
func (o *Online) thread(tid int) *onlineThread {
	if tid < 0 || tid >= len(o.threads) || !o.threads[tid].started {
		return nil
	}
	return &o.threads[tid]
}

// openRegion starts th's next region at ts, with th's current clock.
func (o *Online) openRegion(th *onlineThread, tid int, ts uint64) {
	th.region = len(o.regions)
	th.start = ts
	o.regions = append(o.regions, onlineRegion{epoch: epoch{tid, th.vc[tid]}, start: ts})
}

// ThreadStarted opens thread tid's first region at startTS, the spawn
// timestamp (0 for the main thread). The child's clock is completed when
// the parent's spawn sequencer (same timestamp) fires, before the child
// can run.
func (o *Online) ThreadStarted(tid int, startTS uint64) {
	for len(o.threads) <= tid {
		o.threads = append(o.threads, onlineThread{})
	}
	th := &o.threads[tid]
	*th = onlineThread{started: true, vc: vclock.New(tid + 1).Tick(tid)}
	o.openRegion(th, tid, startTS)
	if startTS > 0 {
		o.spawned = tid
	}
}

// ThreadEnded closes thread tid's last region at endTS.
func (o *Online) ThreadEnded(tid int, endTS uint64) {
	th := o.thread(tid)
	if th == nil || th.ended {
		return
	}
	o.regions[th.region].end = endTS
	th.ended = true
}

// Sequencer closes thread tid's current region at ts and opens the next.
// A spawn sequencer additionally joins the parent's clock into the
// waiting child's — taken *before* the parent ticks for its next region,
// so the parent's post-spawn regions stay concurrent with the child while
// everything up to the spawn happens-before it.
func (o *Online) Sequencer(tid int, ts uint64) {
	th := o.thread(tid)
	if th == nil || th.ended {
		return
	}
	o.regions[th.region].end = ts
	if c := o.spawned; c >= 0 && c != tid && o.threads[c].start == ts {
		o.threads[c].vc = o.threads[c].vc.Join(th.vc)
		o.spawned = -1
	}
	th.vc = th.vc.Tick(tid)
	o.openRegion(th, tid, ts)
	o.seqs++
	if o.seqs%sweepEvery == 0 {
		o.sweep()
	}
}

// StopRequested reports whether a stop-on-race detector has seen a race.
func (o *Online) StopRequested() bool { return o.stop }

// Raced reports whether any race has been observed so far. Safe to call
// mid-run (e.g. by a down-sampling key-frame recorder).
func (o *Online) Raced() bool { return len(o.races) > 0 }

// Access screens one successful data access by thread tid at pc against
// the window, then records it there.
func (o *Online) Access(tid, pc int, addr uint64, atomic, isWrite bool) {
	if atomic {
		// Lock-prefixed accesses never participate in a race; they also
		// need no record, since the region test ignores them entirely.
		return
	}
	th := o.thread(tid)
	if th == nil {
		return
	}
	slot := o.slot(addr)
	recs := *slot
	own := -1
	for i := range recs {
		rec := &recs[i]
		if int(rec.tid) == tid {
			if rec.pc == pc && rec.isWrite == isWrite {
				own = i
			}
			continue
		}
		if !isWrite && !rec.isWrite {
			continue
		}
		o.checked++
		region := &o.regions[rec.region]
		// Sound prune: an HB-ordered pair cannot overlap (the edge chain
		// only exists because the earlier region closed first).
		if region.before(th.vc) {
			o.hbPruned++
			continue
		}
		// The decisive interval test. rec's region is either still open
		// (trivial overlap: both are running now) or closed at its end;
		// the current region began at th.start and has no end yet, so
		// overlap reduces to th.start < end.
		if region.end != 0 && th.start >= region.end {
			continue
		}
		o.foundRace(rec.pc, pc)
	}
	if own >= 0 {
		// The thread's newest region supersedes the older one: it
		// overlaps every future access the older region overlaps.
		recs[own].region = th.region
		return
	}
	*slot = append(recs, onlineRec{region: th.region, pc: pc, tid: int32(tid), isWrite: isWrite})
	o.recs++
	if o.recs > o.windowPeak {
		o.windowPeak = o.recs
	}
}

// slot returns addr's record list, creating its page on first touch.
func (o *Online) slot(addr uint64) *[]onlineRec {
	pn := addr >> windowPageShift
	if pn != o.lastPN {
		pg := o.window[pn]
		if pg == nil {
			pg = new(windowPage)
			o.window[pn] = pg
		}
		o.lastPN, o.last = pn, pg
	}
	return &o.last[addr&windowPageMask]
}

func (o *Online) foundRace(pcA, pcB int) {
	sites := MakeSitePair(o.sites.site(pcA), o.sites.site(pcB))
	if _, ok := o.races[sites]; ok {
		return
	}
	if len(o.races) >= maxOnlineRaces {
		return
	}
	o.races[sites] = struct{}{}
	o.raceOrder = append(o.raceOrder, sites)
	if o.stopOnRace {
		o.stop = true
	}
	if o.reg != nil {
		o.reg.EmitLabeled("detect.online.race", sites.A+" <-> "+sites.B, uint64(len(o.races)))
	}
}

// sweep evicts records no future access can overlap: once a region's end
// is at or below every live thread's open-region start, any region that
// ever checks against it will start at or above that end. It returns at
// once when the watermark has not moved since the last sweep: that sweep
// left only regions ending above the watermark or still open, and a
// region closing later ends later still.
func (o *Online) sweep() {
	watermark := ^uint64(0)
	for i := range o.threads {
		if th := &o.threads[i]; th.started && !th.ended && th.start < watermark {
			watermark = th.start
		}
	}
	if watermark == o.watermark {
		return
	}
	o.watermark = watermark
	o.sweeps++
	o.lastPN, o.last = ^uint64(0), nil // the sweep may delete the cached page
	for pn, pg := range o.window {
		live := 0
		for i, recs := range pg {
			kept := recs[:0]
			for _, rec := range recs {
				if end := o.regions[rec.region].end; end != 0 && end <= watermark {
					continue
				}
				kept = append(kept, rec)
			}
			if n := len(recs) - len(kept); n > 0 {
				o.evicted += uint64(n)
				o.recs -= n
				pg[i] = kept
			}
			live += len(kept)
		}
		if live == 0 {
			delete(o.window, pn)
		}
	}
}

// OnlineReport is the detector's summary after the run.
type OnlineReport struct {
	RaceFree bool
	Races    []SitePair // distinct racy site pairs, in discovery order
	Stopped  bool       // StopOnFirstRace truncated the run
	Checked  uint64     // candidate pairs screened
	HBPruned uint64     // pairs skipped by the epoch prune
}

// Report finalizes the run: it publishes the detect.online.* metrics and
// returns the verdict. stopped says whether the machine actually ended
// early (the stop request is only polled at quantum boundaries).
func (o *Online) Report(stopped bool) *OnlineReport {
	rep := &OnlineReport{
		RaceFree: len(o.races) == 0,
		Races:    o.raceOrder,
		Stopped:  stopped,
		Checked:  o.checked,
		HBPruned: o.hbPruned,
	}
	if r := o.reg; r != nil {
		r.Counter("detect.online.executions").Inc()
		r.Counter("detect.online.races").Add(uint64(len(o.races)))
		if rep.RaceFree {
			r.Counter("detect.online.race_free").Inc()
		}
		r.Counter("detect.online.pairs_checked").Add(o.checked)
		r.Counter("detect.online.hb_pruned").Add(o.hbPruned)
		r.Counter("detect.online.evicted").Add(o.evicted)
		r.Counter("detect.online.sweeps").Add(o.sweeps)
		r.Gauge("detect.online.window_peak").Set(float64(o.windowPeak))
		if stopped {
			r.Counter("detect.online.stopped").Inc()
		}
		r.Emit("detect.online.verdict", uint64(len(o.races)))
	}
	return rep
}
