package progen

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/vproc"
	"repro/internal/workloads"
)

// The references below are the plainest loops the definitions allow.
// They share no code with what they check, so a fast path that drifts
// from its definition shows up as a disagreement.

// instanceKey identifies a race instance: its site pair, its address,
// and its two regions in schedule order.
type instanceKey struct {
	sites  hb.SitePair
	addr   uint64
	ga, gb int
}

// checkDetect compares hb.Detect's instances with the paper's definition
// of a data race (§3): every pair of non-atomic accesses to one address,
// at least one a write, in overlapping regions of different threads. It
// returns the number of keys and the first disagreement.
func checkDetect(exec *replay.Execution, rep *hb.Report) (int, error) {
	return checkEngine(exec, "hb.Detect", rep, (*replay.Region).Overlaps)
}

// checkDetectVC compares hb.DetectVC's instances with the same plain loop
// under the vector-clock test: two regions of different threads are
// concurrent when neither's referenceClocks clock is LessEq the other's.
func checkDetectVC(exec *replay.Execution) (int, error) {
	rep, err := hb.DetectVC(exec, nil)
	if err != nil {
		return 0, fmt.Errorf("hb.DetectVC: %v", err)
	}
	clocks, err := referenceClocks(exec)
	if err != nil {
		return 0, err
	}
	return checkEngine(exec, "hb.DetectVC", rep, func(a, b *replay.Region) bool {
		ca, cb := clocks[a.Global], clocks[b.Global]
		return a.TID != b.TID && !ca.LessEq(cb) && !cb.LessEq(ca)
	})
}

// referenceClocks gives every region a vector clock straight from the
// replay's sync annotations: the join of the clocks of the regions that
// precede it by one edge, ticked on its own thread. The edges are
// program order (the thread's previous region), spawn → child (the
// region that ends at the spawn → the child's first region), child end →
// join (the child's last region → the region its join opens), unlock →
// later lock (the region that ends at an unlock → every later region a
// lock of the same address opens) and atomic → later atomic (a region an
// atomic opens → every later region an atomic on the same address
// opens). An edge into an earlier region of the schedule is an error.
func referenceClocks(exec *replay.Execution) ([]vclock.VC, error) {
	prev := func(r *replay.Region) *replay.Region {
		if r.Ordinal == 0 {
			return nil
		}
		return exec.Thread(r.TID).Regions[r.Ordinal-1]
	}
	clocks := make([]vclock.VC, len(exec.Regions))
	for g, r := range exec.Regions {
		preds := []*replay.Region{prev(r)}
		for _, o := range exec.Regions {
			switch {
			case r.Ordinal == 0 && o.SpawnChild == r.TID:
				preds = append(preds, prev(o))
			case r.JoinTarget >= 0 && o.TID == r.JoinTarget && o.EndKind == trace.SeqEnd:
				preds = append(preds, o)
			case o.Global >= g: // lock and atomic edges come from earlier regions only
			case r.StartKind == trace.SeqLock && o.StartKind == trace.SeqUnlock && o.SyncAddr == r.SyncAddr:
				preds = append(preds, prev(o))
			case r.StartKind == trace.SeqAtomic && o.StartKind == trace.SeqAtomic && o.SyncAddr == r.SyncAddr:
				preds = append(preds, o)
			}
		}
		var vc vclock.VC
		for _, p := range preds {
			if p == nil {
				continue
			}
			if p.Global >= g {
				return nil, fmt.Errorf("region %d has an edge into region %d, which the schedule runs first", p.Global, g)
			}
			vc = vc.Join(clocks[p.Global])
		}
		clocks[g] = vc.Tick(r.TID)
	}
	return clocks, nil
}

// checkEngine compares an engine's instances with the plainest loop over
// every pair of non-atomic accesses to one address, at least one a
// write, in regions that concurrent accepts. The engine must report each
// reference key exactly once and nothing else. Every access must also
// lie in its region (its thread, an instruction index in the region's
// range), which is what the loop reads the regions' access lists as. It
// returns the number of keys and the first disagreement.
func checkEngine(exec *replay.Execution, name string, rep *hb.Report, concurrent func(a, b *replay.Region) bool) (int, error) {
	sites := map[int]string{}
	site := func(pc int) string {
		s, ok := sites[pc]
		if !ok {
			s = exec.Prog.SiteOf(pc)
			sites[pc] = s
		}
		return s
	}

	type ref struct {
		acc replay.Access
		reg *replay.Region
	}
	byAddr := map[uint64][]ref{} // each address's accesses, in schedule order
	for _, r := range exec.Regions {
		for _, a := range r.Accesses {
			if a.TID != r.TID || a.Idx < r.StartIdx || a.Idx >= r.EndIdx {
				return 0, fmt.Errorf("region %d (thread %d, instructions %d..%d) holds access %+v",
					r.Global, r.TID, r.StartIdx, r.EndIdx, a)
			}
			if !a.Atomic {
				byAddr[a.Addr] = append(byAddr[a.Addr], ref{a, r})
			}
		}
	}
	want := map[instanceKey]bool{}
	for addr, refs := range byAddr {
		for i, x := range refs {
			for _, y := range refs[i+1:] {
				if (x.acc.IsWrite || y.acc.IsWrite) && concurrent(x.reg, y.reg) {
					want[instanceKey{hb.MakeSitePair(site(x.acc.PC), site(y.acc.PC)), addr, x.reg.Global, y.reg.Global}] = true
				}
			}
		}
	}

	got := map[instanceKey]bool{}
	for _, race := range rep.Races {
		for _, inst := range race.Instances {
			k := instanceKey{hb.MakeSitePair(site(inst.First.PC), site(inst.Second.PC)), inst.Addr, inst.RegionA.Global, inst.RegionB.Global}
			if k.sites != race.Sites {
				return 0, fmt.Errorf("%s files instance %v under race %v", name, k, race.Sites)
			}
			if got[k] {
				return 0, fmt.Errorf("%s repeats instance %v", name, k)
			}
			got[k] = true
		}
	}
	var missing, extra []instanceKey
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	if len(missing)+len(extra) > 0 {
		return 0, fmt.Errorf("%s vs its reference: %d keys missing (e.g. %v), %d extra (e.g. %v)",
			name, len(missing), firstKey(missing), len(extra), firstKey(extra))
	}
	return len(want), nil
}

func firstKey(ks []instanceKey) any {
	if len(ks) == 0 {
		return nil
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].ga < ks[j].ga || ks[i].ga == ks[j].ga && ks[i].gb < ks[j].gb })
	return ks[0]
}

// checkHistory compares the execution's memory history with a plain walk
// of the regions in schedule order that keeps one image map. The walk
// gives each region's live-ins by the rule the replayer once applied
// eagerly (the image's value; else the region's first read of the
// address; an address it only writes stays unknown) and the image before
// every position. LiveIn must match it for every region and every
// address the region touches (and know nothing of the others), and
// Before at every position for every address the run touches. It
// returns the first disagreement.
func checkHistory(exec *replay.Execution) error {
	mem := exec.Memory()
	var all []uint64 // every address the run touches
	for _, r := range exec.Regions {
		for _, a := range r.Accesses {
			all = append(all, a.Addr)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	all = dedup(all)

	image := map[uint64]uint64{}
	for g := 0; ; g++ {
		for _, addr := range all {
			want, wantOK := image[addr]
			if got, ok := mem.Before(addr, g); got != want || ok != wantOK {
				return fmt.Errorf("Before(0x%x, %d) = %d,%v, want %d,%v", addr, g, got, ok, want, wantOK)
			}
		}
		if g == len(exec.Regions) {
			return nil
		}
		r := exec.Regions[g]
		liveIn := map[uint64]uint64{}
		for _, a := range r.Accesses {
			if _, seen := liveIn[a.Addr]; seen {
				continue
			}
			if v, ok := image[a.Addr]; ok {
				liveIn[a.Addr] = v
			} else if !a.IsWrite {
				liveIn[a.Addr] = a.Val
			}
		}
		for _, addr := range all {
			want, wantOK := liveIn[addr]
			if got, ok := mem.LiveIn(addr, g); got != want || ok != wantOK {
				return fmt.Errorf("LiveIn(0x%x, region %d) = %d,%v, want %d,%v", addr, g, got, ok, want, wantOK)
			}
		}
		for _, a := range r.Accesses {
			image[a.Addr] = a.Val
		}
	}
}

// refRecorder is a machine.Observer that applies iDNA's predictable-load
// rule by its definition: each thread keeps a plain map of the values it
// last read or wrote, and a load is logged when its address is missing
// from that map or holds another value. It also keeps each thread's
// syscall results and sequencers, with the start and end pseudo
// entries.
type refRecorder struct {
	threads map[int]*refThread
	order   []int // tids in start order
}

type refThread struct {
	view    map[uint64]uint64
	loads   []trace.LoadRec
	sysRets []trace.SysRec
	seqs    []trace.Sequencer
	ended   bool
}

func (r *refRecorder) ThreadStarted(t *machine.Thread, startTS uint64) {
	r.threads[t.ID] = &refThread{
		view: map[uint64]uint64{},
		seqs: []trace.Sequencer{{Idx: 0, TS: startTS, Kind: trace.SeqStart, Aux: -1}},
	}
	r.order = append(r.order, t.ID)
}

func (r *refRecorder) ThreadEnded(t *machine.Thread, endTS uint64) {
	th := r.threads[t.ID]
	th.seqs = append(th.seqs, trace.Sequencer{Idx: t.Retired, TS: endTS, Kind: trace.SeqEnd, Aux: -1})
	th.ended = true
}

func (r *refRecorder) Load(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	th := r.threads[tid]
	if v, ok := th.view[addr]; !ok || v != val {
		th.loads = append(th.loads, trace.LoadRec{Idx: idx, Addr: addr, Val: val})
	}
	th.view[addr] = val
}

func (r *refRecorder) Store(tid int, idx uint64, pc int, addr, val uint64, atomic bool) {
	r.threads[tid].view[addr] = val
}

func (r *refRecorder) Sequencer(tid int, idx uint64, ts uint64, op isa.Op, sysNum int64) {
	aux := int64(-1)
	if op == isa.OpSys {
		aux = sysNum
	}
	th := r.threads[tid]
	th.seqs = append(th.seqs, trace.Sequencer{Idx: idx, TS: ts, Kind: trace.KindForOp(op), Aux: aux})
}

func (r *refRecorder) SyscallRet(tid int, idx uint64, res uint64) {
	th := r.threads[tid]
	th.sysRets = append(th.sysRets, trace.SysRec{Idx: idx, Res: res})
}

// checkRecorder runs prog under cfg again with refRecorder as the
// observer and compares each thread's logged loads, syscall results and
// sequencers with the recorder's log of the same run. A thread still
// live when the run ends gets the end pseudo entry the log gives it: in
// start order, timestamps past the final clock.
func checkRecorder(prog *isa.Program, cfg machine.Config, log *trace.Log) error {
	ref := &refRecorder{threads: map[int]*refThread{}}
	cfg.Observer = ref
	m, err := machine.New(prog, cfg)
	if err != nil {
		return err
	}
	res := m.Run()
	ts := res.FinalClock
	for _, tid := range ref.order {
		if th := ref.threads[tid]; !th.ended {
			ts++
			th.seqs = append(th.seqs, trace.Sequencer{Idx: res.Threads[tid].Retired, TS: ts, Kind: trace.SeqEnd, Aux: -1})
		}
	}
	if len(log.Threads) != len(ref.order) {
		return fmt.Errorf("recorder logged %d threads, reference %d", len(log.Threads), len(ref.order))
	}
	for i, tl := range log.Threads {
		th := ref.threads[ref.order[i]]
		switch {
		case tl.TID != ref.order[i]:
			return fmt.Errorf("recorder's thread %d is %d, reference %d", i, tl.TID, ref.order[i])
		case !reflect.DeepEqual(tl.Loads, th.loads):
			return fmt.Errorf("thread %d: recorder logged %d loads, reference %d (or their contents differ)", tl.TID, len(tl.Loads), len(th.loads))
		case !reflect.DeepEqual(tl.SysRets, th.sysRets):
			return fmt.Errorf("thread %d: recorder logged %d syscall results, reference %d (or their contents differ)", tl.TID, len(tl.SysRets), len(th.sysRets))
		case !reflect.DeepEqual(tl.Seqs, th.seqs):
			return fmt.Errorf("thread %d: recorder logged %d sequencers, reference %d (or their contents differ)", tl.TID, len(tl.Seqs), len(th.seqs))
		}
	}
	return nil
}

func dedup(s []uint64) []uint64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// TestReferencesAgree runs the hb.Detect, hb.DetectVC, memory-history
// and recorder references over 400 generated programs under each
// scheduler policy, the 18 suite scenarios, browse and service, and
// counts the executions each one disagrees on. Across all of them it
// also checks the claim the classification memo rests on: instances
// with equal fingerprints have equal dual-order replay results.
func TestReferencesAgree(t *testing.T) {
	keys, vcKeys, runs, detectFails, vcFails, historyFails, recorderFails := 0, 0, 0, 0, 0, 0, 0
	type firstResult struct {
		res  vproc.Result
		name string
	}
	results := map[vproc.Fingerprint]firstResult{}
	repeats, fingerprintFails := 0, 0
	check := func(name string, prog *isa.Program, cfg machine.Config) {
		t.Helper()
		log, _, err := record.Run(prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := checkRecorder(prog, cfg, log); err != nil {
			if recorderFails++; recorderFails <= 3 {
				t.Errorf("%s: %v", name, err)
			}
		}
		exec, err := replay.Run(log, replay.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs++
		races := hb.Detect(exec)
		n, err := checkDetect(exec, races)
		keys += n
		if err != nil {
			if detectFails++; detectFails <= 3 {
				t.Errorf("%s: %v", name, err)
			}
		}
		n, err = checkDetectVC(exec)
		vcKeys += n
		if err != nil {
			if vcFails++; vcFails <= 3 {
				t.Errorf("%s: %v", name, err)
			}
		}
		if err := checkHistory(exec); err != nil {
			if historyFails++; historyFails <= 3 {
				t.Errorf("%s: %v", name, err)
			}
		}
		fper := vproc.NewFingerprinter(exec)
		for _, race := range races.Races {
			for _, inst := range race.Instances {
				pair := vproc.RacePair{
					RegionA: inst.RegionA, RegionB: inst.RegionB,
					IdxA: inst.First.Idx, IdxB: inst.Second.Idx,
					PCA: inst.First.PC, PCB: inst.Second.PC,
					Addr: inst.Addr,
				}
				fp := fper.Instance(pair)
				res := vproc.Analyze(exec, pair, vproc.Options{}, nil)
				first, seen := results[fp]
				if !seen {
					results[fp] = firstResult{res, name}
					continue
				}
				repeats++
				if !reflect.DeepEqual(first.res, res) {
					if fingerprintFails++; fingerprintFails <= 3 {
						t.Errorf("%s %s: fingerprint of an instance in %s, unequal results:\n %+v\n %+v",
							name, race.Sites, first.name, first.res, res)
					}
				}
			}
		}
	}
	programs := 400
	if testing.Short() {
		programs = 40
	}
	policies := []machine.SchedPolicy{machine.PolicyRandom, machine.PolicyRoundRobin, machine.PolicyPCT}
	for i := 0; i < programs; i++ {
		r := rand.New(rand.NewSource(int64(3000 + i)))
		src := Generate(r, Random(r))
		prog, err := asm.Assemble("ref", src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		for _, p := range policies {
			check(fmt.Sprintf("program %d policy %d", i, p), prog, machine.Config{Seed: int64(i), Policy: p, MaxSteps: 1 << 20})
		}
	}
	for _, sc := range append(workloads.Scenarios(), workloads.BrowseScenario(), workloads.ServiceScenario()) {
		prog, err := sc.Program()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		check(sc.Name, prog, sc.Config())
	}
	if detectFails+vcFails+historyFails+recorderFails+fingerprintFails > 0 {
		t.Fatalf("of %d executions, hb.Detect disagrees with its reference on %d, hb.DetectVC on %d, the memory history on %d and the recorder on %d; %d instances share a fingerprint with an unequal result",
			runs, detectFails, vcFails, historyFails, recorderFails, fingerprintFails)
	}
	if keys == 0 || vcKeys == 0 {
		t.Fatal("no race instance checked")
	}
	if repeats == 0 {
		t.Fatal("no fingerprint repeats, so no two results were compared")
	}
	t.Logf("%d executions, %d hb.Detect and %d hb.DetectVC instance keys agree; %d distinct fingerprints, %d repeats with equal results",
		runs, keys, vcKeys, len(results), repeats)
}
