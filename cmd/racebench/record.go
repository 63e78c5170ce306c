package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// recordOnline is the production side of the paper (§5.1): the two long,
// loop-heavy programs recorded under many scheduler seeds. One unit of
// work is a round: browse and service at one seed, each run natively,
// recorded plainly and encoded, and recorded with the online detector and
// encoded. Nothing here replays, detects offline, classifies or predicts.
type recordOnline struct {
	execs []onlineRef // browse under every seed, then service under every seed
	next  int         // round cursor: round r is execs[r] and execs[r+len/2]
	bits  uint64
	instr uint64
}

// onlineRef is one execution's reference, taken in set-up.
type onlineRef struct {
	item
	digest string        // core.LogDigest of the reference recording
	instr  uint64        // retired instructions
	races  []hb.SitePair // the offline detector's race set, sorted
}

func setupRecordOnline(e *env) (instance, error) {
	execs, err := scenarioItems(e.seed, []workloads.Scenario{workloads.BrowseScenario(), workloads.ServiceScenario()}, e.scale.RecordSeeds)
	if err != nil {
		return nil, err
	}
	w := &recordOnline{}
	for _, it := range execs {
		ref := onlineRef{item: it}
		log, res, err := record.Run(it.prog, it.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.label, err)
		}
		exec, err := replay.Run(log, replay.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: replay: %w", it.label, err)
		}
		for _, r := range hb.Detect(exec).Races {
			ref.races = append(ref.races, r.Sites)
		}
		sortPairs(ref.races)
		ref.digest = core.LogDigest(log)
		ref.instr = res.TotalSteps
		w.bits += 8 * uint64(len(trace.MarshalV2(log)))
		w.instr += log.Instructions()
		w.execs = append(w.execs, ref)
	}
	return w, nil
}

func (w *recordOnline) warm() *measurement { return w.measure(time.Time{}, nil) }

func (w *recordOnline) measure(deadline time.Time, reg *obs.Registry) *measurement {
	return closedLoop(deadline, func() (int, func() error) {
		half := len(w.execs) / 2
		round := []onlineRef{w.execs[w.next], w.execs[half+w.next]}
		w.next = (w.next + 1) % half
		outs := make([]onlineRun, len(round))
		for i, ref := range round {
			outs[i] = runThreeWays(ref.item, reg)
		}
		return len(round), func() error {
			for i, ref := range round {
				if err := outs[i].check(ref); err != nil {
					return fmt.Errorf("%s: %w", ref.label, err)
				}
			}
			return nil
		}
	})
}

// onlineRun is what one execution's three runs produced.
type onlineRun struct {
	native  *machine.Result
	plain   *trace.Log
	online  *trace.Log
	verdict *hb.OnlineReport
	err     error
}

// runThreeWays runs it natively, records and encodes it, then records it
// with the online detector and encodes it.
func runThreeWays(it item, reg *obs.Registry) onlineRun {
	var out onlineRun
	sp := reg.StartSpan("native")
	m, err := machine.New(it.prog, it.cfg)
	if err == nil {
		out.native = m.Run()
	}
	sp.End()
	if err != nil {
		out.err = err
		return out
	}
	if out.plain, _, err = record.RunInstrumented(it.prog, it.cfg, reg); err != nil {
		out.err = err
		return out
	}
	reg.Time("encode", func() { trace.MarshalV2(out.plain) })
	out.online, _, out.verdict, err = record.RunOnlineInstrumented(it.prog, it.cfg, record.OnlineConfig{Detect: true}, reg)
	if err != nil {
		out.err = err
		return out
	}
	reg.Time("encode", func() { trace.MarshalV2(out.online) })
	return out
}

// check holds one execution's runs to its set-up reference: both logs
// hash to the reference digest, the native run retires as many
// instructions, and the online verdict names exactly the offline
// detector's races.
func (o onlineRun) check(ref onlineRef) error {
	if o.err != nil {
		return o.err
	}
	if o.native.TotalSteps != ref.instr {
		return fmt.Errorf("native run retired %d instructions, recording %d", o.native.TotalSteps, ref.instr)
	}
	if d := core.LogDigest(o.plain); d != ref.digest {
		return fmt.Errorf("recorded log digest %s, reference %s", d, ref.digest)
	}
	if d := core.LogDigest(o.online); d != ref.digest {
		return fmt.Errorf("online-recorded log digest %s, reference %s", d, ref.digest)
	}
	got := append([]hb.SitePair(nil), o.verdict.Races...)
	sortPairs(got)
	if o.verdict.RaceFree != (len(ref.races) == 0) || fmt.Sprint(got) != fmt.Sprint(ref.races) {
		return fmt.Errorf("online verdict race_free=%v %v, offline detector %v", o.verdict.RaceFree, got, ref.races)
	}
	return nil
}

func sortPairs(pairs []hb.SitePair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
}

func (w *recordOnline) items() []item {
	out := make([]item, len(w.execs))
	for i, ref := range w.execs {
		out[i] = ref.item
	}
	return out
}

func (w *recordOnline) logSize() (bits, instr uint64) { return w.bits, w.instr }
func (w *recordOnline) close()                        {}
