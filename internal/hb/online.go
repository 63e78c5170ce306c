package hb

import (
	"repro/internal/isa"
	"repro/internal/obs"
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
// so "no race found online" and "no race found offline" coincide. Like
// the paper's detector, the check keeps no clocks: a region is only its
// end timestamp, and a thread its open region's start.
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
// The window is laid out in 64-word pages of per-word record lists, as
// the recorder's per-thread views are, so an access writes the page map
// only when it touches a new page. A watermark sweep keeps it bounded: a
// closed region whose end falls at or below the minimum open-region
// start across live threads can overlap no future access, and its
// records are evicted, along with pages left empty. The watermark never
// falls, and every region that closes after a sweep ends above it, so
// the sweep, considered every sweepEvery sequencers, runs only when the
// watermark has moved since the previous one.
type Online struct {
	sites siteMemo // filled only by foundRace
	reg   *obs.Registry

	stopOnRace bool
	stop       bool

	threads []onlineThread         // indexed by tid
	ends    []uint64               // by region id (one per sequencer so far): its end timestamp, 0 while open
	window  map[uint64]*windowPage // page number -> per-word record lists
	recs    int                    // total records across the window

	races      map[SitePair]struct{}
	raceOrder  []SitePair
	seqs       uint64 // sequencer events, drives the eviction sweep
	watermark  uint64 // watermark of the last sweep
	checked    uint64 // candidate pairs screened
	evicted    uint64 // records reclaimed by watermark sweeps
	sweeps     uint64
	windowPeak int
}

// onlineRec is one access record in the window: thread tid accessed the
// record's address at pc, most recently in region.
type onlineRec struct {
	region  int // index into Online.ends
	pc      int
	tid     int32
	isWrite bool
}

type onlineThread struct {
	started bool
	ended   bool
	region  int    // current region id
	start   uint64 // current region's start
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

// openRegion starts th's next region at ts.
func (o *Online) openRegion(th *onlineThread, ts uint64) {
	th.region = len(o.ends)
	th.start = ts
	o.ends = append(o.ends, 0)
}

// ThreadStarted opens thread tid's first region at startTS, the spawn
// timestamp (0 for the main thread).
func (o *Online) ThreadStarted(tid int, startTS uint64) {
	for len(o.threads) <= tid {
		o.threads = append(o.threads, onlineThread{})
	}
	th := &o.threads[tid]
	*th = onlineThread{started: true}
	o.openRegion(th, startTS)
}

// ThreadEnded closes thread tid's last region at endTS.
func (o *Online) ThreadEnded(tid int, endTS uint64) {
	th := o.thread(tid)
	if th == nil || th.ended {
		return
	}
	o.ends[th.region] = endTS
	th.ended = true
}

// Sequencer closes thread tid's current region at ts and opens the next.
func (o *Online) Sequencer(tid int, ts uint64) {
	th := o.thread(tid)
	if th == nil || th.ended {
		return
	}
	o.ends[th.region] = ts
	o.openRegion(th, ts)
	o.seqs++
	if o.seqs%sweepEvery == 0 {
		o.sweep()
	}
}

// StopRequested reports whether a stop-on-race detector has seen a race.
func (o *Online) StopRequested() bool { return o.stop }

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
		// The interval test. rec's region is either still open (trivial
		// overlap: both are running now) or closed at its end; the
		// current region began at th.start and has no end yet, so
		// overlap reduces to th.start < end.
		if end := o.ends[rec.region]; end != 0 && th.start >= end {
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
	pg := o.window[pn]
	if pg == nil {
		pg = new(windowPage)
		o.window[pn] = pg
	}
	return &pg[addr&windowPageMask]
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
	for pn, pg := range o.window {
		live := 0
		for i, recs := range pg {
			kept := recs[:0]
			for _, rec := range recs {
				if end := o.ends[rec.region]; end != 0 && end <= watermark {
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
	}
	if r := o.reg; r != nil {
		r.Counter("detect.online.executions").Inc()
		r.Counter("detect.online.races").Add(uint64(len(o.races)))
		if rep.RaceFree {
			r.Counter("detect.online.race_free").Inc()
		}
		r.Counter("detect.online.pairs_checked").Add(o.checked)
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
