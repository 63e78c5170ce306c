package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/serve"
	"repro/internal/trace"
)

// passResult is the traced layer pass's output.
type passResult struct {
	values map[string]float64 // per-layer metrics
	m      *measurement       // failures the pass observed
	files  []string           // layers.json and the Chrome trace
}

// layerClock accumulates the process CPU time of the calls into each
// layer. The pass is serial, so the process's CPU time during a call is
// that call's, plus the garbage collection its allocations cause. Times
// are rescaled to reference speed by a speedometer sampled before each
// execution. The obs spans around the same calls give the artifacts their
// structure without their bookkeeping entering the numbers.
type layerClock struct {
	reg   *obs.Registry
	total map[string]time.Duration
	speed speedometer
}

func (c *layerClock) time(layer string, f func()) {
	sp := c.reg.StartSpan(layer)
	cpu0 := cpuTime()
	f()
	c.total[layer] += cpuTime() - cpu0
	sp.End()
}

func (c *layerClock) ms(layer string) float64 {
	return float64(c.total[layer]) / 1e6 * c.speed.factor()
}

// layerPass drives every execution through each layer's public entry
// point in turn, serially: a native machine run, a plain and an online
// recording, v2 encode and decode, replay, happens-before detection,
// classification (one memo shared across the pass, as in a batch),
// prediction and the classification of the predicted pairs; then it
// merges the verdicts and renders analyze-dir's report once. It then
// uploads up to ingestLimit containers to a fresh serve daemon, polls
// each job to its verdict and fetches the merged report. It writes
// layers.json (the span tree with self times, the layers' counters, the
// metrics, and the spans and counters loop recorded during the traced
// half of the measured loop) and a Chrome trace of the pass, and checks
// the trace with obs.ValidateTrace.
func layerPass(items []item, e *env, workload string, loop *obs.Registry) (*passResult, error) {
	reg := obs.NewRegistry()
	tl := reg.EnableTimeline(1 << 16)
	clk := &layerClock{reg: reg, total: map[string]time.Duration{}}
	memo := classify.NewMemo()
	m := &measurement{}
	var instr, size, raceFree, regions, races, instances, candidates, newRaces float64
	var containers [][]byte
	var parts []*classify.Classification
	root := reg.StartSpan("layers")
	for _, it := range items {
		clk.speed.sample()
		m.attempted++
		fail := func(stage string, err error) { m.fail(1, fmt.Errorf("%s: %s: %w", it.label, stage, err)) }
		var (
			native *machine.Result
			log    *trace.Log
			err    error
		)
		clk.time("machine", func() {
			var mc *machine.Machine
			if mc, err = machine.New(it.prog, it.cfg); err == nil {
				native = mc.Run()
			}
		})
		if err != nil {
			fail("machine", err)
			continue
		}
		instr += float64(native.TotalSteps)
		clk.time("record", func() { log, _, err = record.Run(it.prog, it.cfg) })
		if err != nil {
			fail("record", err)
			continue
		}
		var data []byte
		clk.time("encode", func() { data = trace.MarshalV2(log) })
		size += float64(len(data))
		containers = append(containers, data)
		var online *hb.OnlineReport
		clk.time("record_online", func() {
			_, _, online, err = record.RunOnline(it.prog, it.cfg, record.OnlineConfig{Detect: true})
		})
		if err != nil {
			fail("record online", err)
			continue
		}
		if online.RaceFree {
			raceFree++
		}
		clk.time("decode", func() {
			if log, _, err = core.DecodeLogOpts(data, core.DecodeOptions{Salvage: true, Metrics: reg}); err == nil {
				err = log.Validate()
			}
		})
		if err != nil {
			fail("decode", err)
			continue
		}
		var exec *replay.Execution
		clk.time("replay", func() { exec, err = replay.Run(log, replay.Options{Metrics: reg}) })
		if err != nil {
			fail("replay", err)
			continue
		}
		regions += float64(len(exec.Regions))
		var rep *hb.Report
		clk.time("hb", func() { rep = hb.DetectInstrumented(exec, reg) })
		races += float64(len(rep.Races))
		opts := classify.Options{Scenario: it.label, Seed: it.cfg.Seed, Memo: memo, Metrics: reg}
		var cls *classify.Classification
		clk.time("classify", func() { cls = classify.Run(exec, rep, opts) })
		instances += float64(cls.TotalInstances())
		parts = append(parts, cls)
		var pred *predict.Report
		var fresh *hb.Report
		clk.time("predict", func() {
			pred = predict.Run(exec, predict.Options{Metrics: reg})
			fresh = pred.NewReport(rep)
		})
		candidates += float64(len(pred.Candidates))
		newRaces += float64(len(fresh.Races))
		clk.time("classify_predicted", func() { classify.Run(exec, fresh, opts) })
	}
	clk.time("report", func() { renderMerged(len(parts), classify.Merge(parts...)) })
	root.End()

	sreg := obs.NewRegistry()
	serveSpan := reg.StartSpan("serve")
	sv := ingest(containers, items, e, reg, sreg, m)
	serveSpan.End()

	n := float64(len(items))
	hits, misses := float64(memo.Hits()), float64(memo.Misses())
	counters := reg.Snapshot().Counters
	scounters := sreg.Snapshot().Counters
	values := map[string]float64{
		"machine.native_ns_per_instr":    ratio(clk.ms("machine")*1e6, instr),
		"record.ns_per_instr":            ratio(clk.ms("record")*1e6, instr),
		"record.slowdown":                ratio(clk.ms("record"), clk.ms("machine")),
		"record.online_ns_per_instr":     ratio(clk.ms("record_online")*1e6, instr),
		"record.online_slowdown":         ratio(clk.ms("record_online"), clk.ms("machine")),
		"record.online_racefree_ratio":   ratio(raceFree, n),
		"trace.encode_ns_per_instr":      ratio(clk.ms("encode")*1e6, instr),
		"trace.bytes_per_exec":           ratio(size, n),
		"trace.decode_ms_per_exec":       ratio(clk.ms("decode"), n),
		"replay.ms_per_exec":             ratio(clk.ms("replay"), n),
		"replay.regions_per_exec":        ratio(regions, n),
		"hb.detect_ms_per_exec":          ratio(clk.ms("hb"), n),
		"hb.races_per_exec":              ratio(races, n),
		"hb.screened_out_ratio":          ratio(float64(counters["detect.addresses_screened_out"]), float64(counters["detect.addresses_indexed"])),
		"classify.ms_per_exec":           ratio(clk.ms("classify"), n),
		"classify.instances_per_exec":    ratio(instances, n),
		"classify.memo_hit_ratio":        ratio(hits, hits+misses),
		"predict.ms_per_exec":            ratio(clk.ms("predict"), n),
		"predict.candidates_per_exec":    ratio(candidates, n),
		"predict.new_races_per_exec":     ratio(newRaces, n),
		"classify_predicted.ms_per_exec": ratio(clk.ms("classify_predicted"), n),
		"report.render_ms":               clk.ms("report"),
		"serve.upload_p50_ms":            percentileMS(sv.upload, 50),
		"serve.upload_p99_ms":            percentileMS(sv.upload, 99),
		"serve.analysis_p50_ms":          percentileMS(sv.analysis, 50),
		"serve.poll_p50_ms":              percentileMS(sv.poll, 50),
		"serve.report_p50_ms":            percentileMS(sv.report, 50),
		"serve.backpressure_429":         float64(scounters["serve.backpressure_429"]),
		"serve.memo_hit_ratio": ratio(float64(scounters["classify.memo.hits"]),
			float64(scounters["classify.memo.hits"]+scounters["classify.memo.misses"])),
	}

	dir := filepath.Join(e.work, fmt.Sprintf("%s-seed%d", workload, e.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	layersFile := filepath.Join(dir, "layers.json")
	traceFile := filepath.Join(dir, "trace.json")
	ls := loop.Snapshot()
	doc := struct {
		Workload      string             `json:"workload"`
		Seed          int64              `json:"seed"`
		Executions    int                `json:"executions"`
		Metrics       map[string]float64 `json:"metrics"`
		Spans         []layerSpan        `json:"spans"`
		Counters      map[string]uint64  `json:"counters"`
		ServeCounters map[string]uint64  `json:"serve_counters"`
		LoopSpans     []layerSpan        `json:"loop_spans"`
		LoopCounters  map[string]uint64  `json:"loop_counters"`
		TimelineDrops uint64             `json:"timeline_dropped"`
	}{workload, e.seed, len(items), values, selfTimes(reg.Snapshot().Spans), counters, scounters,
		selfTimes(ls.Spans), ls.Counters, tl.Snapshot().Dropped()}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(layersFile, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	f, err := os.Create(traceFile)
	if err != nil {
		return nil, err
	}
	werr := tl.WriteTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, werr
	}
	written, err := os.ReadFile(traceFile)
	if err != nil {
		return nil, err
	}
	if _, err := obs.ValidateTrace(written); err != nil {
		m.fail(1, err)
	}
	return &passResult{values: values, m: m, files: []string{layersFile, traceFile}}, nil
}

// ingestLimit bounds the containers the layer pass uploads, so the pass
// stays short on the workloads with many executions.
const ingestLimit = 64

// serveTimes are the wall-clock request latencies of the ingest pass. The
// daemon's layers run on several goroutines at once, so the pass times
// its requests rather than the layers behind them.
type serveTimes struct {
	upload   []time.Duration // POST /v1/upload round trip
	analysis []time.Duration // 202 → verdict observed
	poll     []time.Duration // one GET /v1/jobs/{id}
	report   []time.Duration // one GET /v1/report
}

// ingest uploads the first ingestLimit containers to a fresh daemon
// publishing into sreg, polling each job to its verdict before the next
// upload and fetching the merged report after every eighth verdict and at
// the end. Each request runs under a span of reg.
func ingest(containers [][]byte, items []item, e *env, reg, sreg *obs.Registry, m *measurement) serveTimes {
	var st serveTimes
	d, err := startDaemon(e.work, sreg)
	if err != nil {
		m.fail(1, err)
		return st
	}
	defer d.close()
	fetch := func() {
		sp := reg.StartSpan("report")
		start := time.Now()
		_, err := d.report()
		st.report = append(st.report, time.Since(start))
		sp.End()
		if err != nil {
			m.fail(1, err)
		}
	}
	for i, data := range containers[:min(len(containers), ingestLimit)] {
		m.attempted++
		u := upload{label: fmt.Sprintf("u%07d-%s", i, items[i].label), data: data}
		sp := reg.StartSpan("upload")
		start := time.Now()
		code, id, err := d.post(u)
		st.upload = append(st.upload, time.Since(start))
		sp.End()
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("upload %s answered %d", u.label, code)
		}
		if err != nil {
			m.fail(1, err)
			continue
		}
		sp = reg.StartSpan("await")
		accepted := time.Now()
		pl, err := d.await(id)
		st.analysis = append(st.analysis, time.Since(accepted))
		sp.End()
		if pl.n > 0 {
			st.poll = append(st.poll, pl.rtt/time.Duration(pl.n))
		}
		if err == nil && pl.status != string(serve.StatusDone) {
			err = fmt.Errorf("%s ended %s", u.label, pl.status)
		}
		if err != nil {
			m.fail(1, err)
		}
		if (i+1)%8 == 0 {
			fetch()
		}
	}
	fetch()
	return st
}

// layerSpan is one node of layers.json's span tree.
type layerSpan struct {
	Name     string      `json:"name"`
	Count    uint64      `json:"count"`
	TotalNS  int64       `json:"total_ns"`
	SelfNS   int64       `json:"self_ns"` // total minus the part the children cover
	Children []layerSpan `json:"children,omitempty"`
}

func selfTimes(spans []obs.SpanSnapshot) []layerSpan {
	out := make([]layerSpan, 0, len(spans))
	for _, s := range spans {
		ls := layerSpan{Name: s.Name, Count: s.Count, TotalNS: s.Nanos, SelfNS: s.Nanos, Children: selfTimes(s.Children)}
		for _, c := range s.Children {
			ls.SelfNS -= c.Nanos
		}
		out = append(out, ls)
	}
	return out
}
