package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/workloads"
)

const (
	corruptEvery = 20 // one in this many serve-ingest uploads is corrupted so the whole log is condemned
	reportEvery  = 10 // the open loop fetches the merged report once per this many verdicts
	pollInterval = time.Millisecond
	pollTimeout  = time.Minute // a job not terminal by then counts as failed
	openShare    = 0.5         // share of the measured time spent in the open-loop phase
)

// daemon is an in-process `racer serve` behind a loopback HTTP server,
// reached through two client connections: one uploads, the other polls
// jobs and reads the merged report.
type daemon struct {
	srv      *serve.Server
	hs       *httptest.Server
	up, read *http.Client
	dir      string

	// What the merged report must show: every upload answered 202 or
	// 400, in label order (labels number the uploads, so label order is
	// upload order).
	uploads []upload
}

// upload is one request body with what the daemon must answer.
type upload struct {
	label   string
	data    []byte
	payload int    // index of the container it carries
	wantErr string // non-empty: a corrupt upload, to be quarantined with this error
}

func startDaemon(dir string, reg *obs.Registry) (*daemon, error) {
	d, err := os.MkdirTemp(dir, "serve-*")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{DataDir: d, Jobs: jobs, QueueCap: 1024, Predict: true, Registry: reg})
	if err != nil {
		os.RemoveAll(d)
		return nil, err
	}
	srv.Start()
	client := func() *http.Client {
		return &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return &daemon{srv: srv, hs: httptest.NewServer(srv.Handler()), up: client(), read: client(), dir: d}, nil
}

// close stops the HTTP server and the daemon and removes its data.
func (d *daemon) close() {
	d.up.CloseIdleConnections()
	d.read.CloseIdleConnections()
	d.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.srv.Shutdown(ctx)
	os.RemoveAll(d.dir)
}

// post sends one upload and returns the HTTP status and the job id.
func (d *daemon) post(u upload) (int, string, error) {
	q := url.Values{"label": {u.label}}
	resp, err := d.up.Post(d.hs.URL+"/v1/upload?"+q.Encode(), "application/octet-stream", bytes.NewReader(u.data))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var body struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return resp.StatusCode, "", fmt.Errorf("upload %s: %w", u.label, err)
	}
	if resp.StatusCode == http.StatusBadRequest && body.Status != string(serve.StatusQuarantined) {
		return resp.StatusCode, body.ID, fmt.Errorf("upload %s: 400 with status %q", u.label, body.Status)
	}
	return resp.StatusCode, body.ID, nil
}

// polls is how one job was polled to its verdict.
type polls struct {
	status string
	n      int           // GET /v1/jobs/{id} requests
	rtt    time.Duration // summed request time, sleeps excluded
}

// await polls one job until it is terminal.
func (d *daemon) await(id string) (polls, error) {
	var p polls
	deadline := time.Now().Add(pollTimeout)
	for {
		start := time.Now()
		resp, err := d.read.Get(d.hs.URL + "/v1/jobs/" + url.PathEscape(id))
		if err != nil {
			return p, err
		}
		var body struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		p.n++
		p.rtt += time.Since(start)
		if err != nil || resp.StatusCode != http.StatusOK {
			return p, fmt.Errorf("poll %s: status %d: %v", id, resp.StatusCode, err)
		}
		p.status = body.Status
		if p.status == string(serve.StatusDone) || p.status == string(serve.StatusQuarantined) {
			return p, nil
		}
		if time.Now().After(deadline) {
			return p, fmt.Errorf("job %s not terminal after %v", id, pollTimeout)
		}
		time.Sleep(pollInterval)
	}
}

// report fetches the merged report.
func (d *daemon) report() (string, error) {
	resp, err := d.read.Get(d.hs.URL + "/v1/report")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("report: status %d", resp.StatusCode)
	}
	return string(body), err
}

// expected renders the merged report the daemon must serve: the
// reference classifications of every accepted upload merged the way
// analyze-dir merges a directory, then the corrupt uploads' quarantine
// section.
func (d *daemon) expected(refs []*classify.Classification) string {
	var parts []*classify.Classification
	var quarantined []core.Quarantined
	for i, u := range d.uploads {
		if u.wantErr != "" {
			quarantined = append(quarantined, core.Quarantined{Index: i, Label: u.label, Err: errors.New(u.wantErr)})
		} else {
			parts = append(parts, refs[u.payload])
		}
	}
	text := renderMerged(len(parts), classify.Merge(parts...))
	if len(quarantined) > 0 {
		text += "\n" + report.QuarantineSection(quarantined)
	}
	return text
}

// openStats is what the open loop observed.
type openStats struct {
	verdicts []time.Duration // due time → verdict observed, accepted uploads only
	late     []time.Duration // send time − due time
	reports  []time.Duration // merged-report fetch times
}

// openLoop sends n uploads drawn from next, the i-th due at
// start+i*interval, on the upload connection. Meanwhile the read
// connection polls each accepted job to its verdict in upload order and
// fetches the merged report after every reportEvery-th verdict. An upload
// that is late waits; its latency still counts from when it was due.
func (d *daemon) openLoop(n int, interval time.Duration, next func() upload, m *measurement) openStats {
	type pending struct {
		id, label string
		due       time.Time
	}
	// The reader goroutine owns its stats until it hands them back.
	type readings struct {
		m                 measurement
		verdicts, reports []time.Duration
	}
	jobsCh := make(chan pending, n) // sized to the number of sends: the uploader never blocks
	read := make(chan *readings)
	go func() {
		r := &readings{}
		for job := range jobsCh {
			if err := d.awaitDone(job.id, job.label); err != nil {
				r.m.fail(1, err)
				continue
			}
			r.verdicts = append(r.verdicts, time.Since(job.due))
			if len(r.verdicts)%reportEvery == 0 {
				start := time.Now()
				if _, err := d.report(); err != nil {
					r.m.fail(1, err)
				}
				r.reports = append(r.reports, time.Since(start))
			}
		}
		read <- r
	}()
	var st openStats
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		st.late = append(st.late, time.Since(due))
		u := next()
		if id, ok := d.send(u, m); ok && u.wantErr == "" {
			jobsCh <- pending{id: id, label: u.label, due: due}
		}
	}
	close(jobsCh)
	r := <-read
	m.add(&r.m)
	st.verdicts, st.reports = r.verdicts, r.reports
	return st
}

// burst sends n uploads drawn from next back to back, then polls each
// accepted job to its verdict in upload order. It returns the uploads
// that reached a verdict (202 → done, or 400 → quarantined).
func (d *daemon) burst(n int, next func() upload, m *measurement) int {
	type pending struct{ id, label string }
	var jobs []pending
	done := 0
	for i := 0; i < n; i++ {
		u := next()
		id, ok := d.send(u, m)
		switch {
		case ok && u.wantErr == "":
			jobs = append(jobs, pending{id, u.label})
		case ok:
			done++
		}
	}
	for _, j := range jobs {
		if err := d.awaitDone(j.id, j.label); err != nil {
			m.fail(1, err)
			continue
		}
		done++
	}
	return done
}

// send posts one upload and checks the answer: 202 for a clean upload,
// 400 and quarantined for a corrupt one. It returns the job id and
// whether the answer was the expected one; such uploads join d.uploads,
// what the merged report must show.
func (d *daemon) send(u upload, m *measurement) (id string, ok bool) {
	m.attempted++
	code, id, err := d.post(u)
	switch {
	case err != nil:
		m.fail(1, err)
	case code == http.StatusAccepted && u.wantErr == "":
		d.uploads = append(d.uploads, u)
		return id, true
	case code == http.StatusBadRequest && u.wantErr != "":
		d.uploads = append(d.uploads, u)
		return id, true
	default:
		m.fail(1, fmt.Errorf("upload %s answered %d (corrupt=%v)", u.label, code, u.wantErr != ""))
	}
	return "", false
}

// awaitDone polls one accepted job to its verdict, which must be done.
func (d *daemon) awaitDone(id, label string) error {
	pl, err := d.await(id)
	if err == nil && pl.status != string(serve.StatusDone) {
		err = fmt.Errorf("%s: job %s ended %s", label, id, pl.status)
	}
	return err
}

// serveIngest is the daemon path: a `racer serve -predict` daemon fed
// production-size recordings (browse and service under RecordSeeds
// seeds each), one upload in corruptEvery corrupted so the whole log is
// condemned. Phase 1 is an open loop at ServeRate uploads per second,
// each accepted job polled to its verdict and the merged report fetched
// every reportEvery verdicts; its latencies, timed from when each upload
// was due, go to the result's info. Phase 2 is closed: bursts of
// ServeBurst back-to-back uploads, each burst's jobs then polled to their
// verdicts. One execution is one upload answered in phase 2, and its CPU
// cost is the gated number. Phase 2 polls a job only once the whole
// burst is sent, so the number of polls does not depend on how fast the
// machine happened to be.
//
// The daemon journals and fsyncs every accept and verdict into its data
// directory inside the checkout. Payloads this size keep the analysis,
// not the disk, the larger part of each upload's CPU time: with the
// suite's tiny logs, fsync system time and the runtime's idle spinning
// between uploads were most of it, and they varied with the disk's load
// by a sixth between runs.
type serveIngest struct {
	e        *env
	payloads *batch
	corrupt  [][]byte
	badErr   []string
	refs     []*classify.Classification
	d        *daemon
	rng      *rand.Rand
	deck     []int // payloads still to draw in this pass over them
	offset   int   // which of every corruptEvery uploads is corrupted
	uploaded int
}

func setupServeIngest(e *env) (instance, error) {
	execs, err := scenarioItems(e.seed, []workloads.Scenario{workloads.BrowseScenario(), workloads.ServiceScenario()}, e.scale.RecordSeeds)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	w := &serveIngest{e: e, payloads: &batch{execs: execs, predict: true}, rng: rng, offset: rng.Intn(corruptEvery)}
	if err := w.payloads.recordContainers(); err != nil {
		return nil, err
	}
	ref := w.payloads.run(nil, jobs, false)
	if ref.err != nil {
		return nil, fmt.Errorf("reference: %w", ref.err)
	}
	inj := chaos.NewInjector(e.seed)
	for i, res := range ref.results {
		w.refs = append(w.refs, res.Classification)
		bad := inj.CorruptFileKind(w.payloads.containers[i], chaos.KindBadMagic, i)
		_, _, derr := core.DecodeLogFrom(bytes.NewReader(bad), int64(len(bad)), core.DecodeOptions{Salvage: true})
		if derr == nil {
			return nil, fmt.Errorf("%s: corrupted container still decodes", w.payloads.labels[i])
		}
		w.corrupt = append(w.corrupt, bad)
		w.badErr = append(w.badErr, derr.Error())
	}
	if w.d, err = startDaemon(e.work, nil); err != nil {
		return nil, err
	}
	return w, nil
}

// next draws the next upload: the payloads in a random order, each once
// per pass over them, and one upload in corruptEvery corrupted. Drawing
// without replacement keeps the mix of long and short recordings, and so
// the work per upload, the same from run to run.
func (w *serveIngest) next() upload {
	if len(w.deck) == 0 {
		w.deck = w.rng.Perm(len(w.payloads.containers))
	}
	p := w.deck[0]
	w.deck = w.deck[1:]
	u := w.upload(p)
	if w.uploaded%corruptEvery == w.offset {
		u.data, u.wantErr = w.corrupt[p], w.badErr[p]
	}
	return u
}

// upload numbers an upload of payload p; labels sort in upload order.
func (w *serveIngest) upload(p int) upload {
	w.uploaded++
	return upload{label: fmt.Sprintf("u%07d-%s", w.uploaded, w.payloads.labels[p]), data: w.payloads.containers[p], payload: p}
}

func (w *serveIngest) warm() *measurement { return w.warmDaemon(w.d) }

// warmDaemon uploads every payload once, so the daemon's memo holds what
// a long-running daemon would already have.
func (w *serveIngest) warmDaemon(d *daemon) *measurement {
	m := &measurement{}
	p := 0
	d.burst(len(w.payloads.containers), func() upload { p++; return w.upload(p - 1) }, m)
	return m
}

func (w *serveIngest) measure(deadline time.Time, reg *obs.Registry) *measurement {
	m := &measurement{}
	d := w.d
	if reg != nil {
		var err error
		if d, err = startDaemon(w.e.work, reg); err != nil {
			m.fail(1, err)
			return m
		}
		defer d.close()
		// The fresh daemon warms up like the set-up one did, off the clock.
		start := time.Now()
		m.add(w.warmDaemon(d))
		deadline = deadline.Add(time.Since(start))
	}
	rate := w.e.scale.ServeRate
	open := time.Duration(openShare * float64(time.Until(deadline)))
	st := d.openLoop(int(open.Seconds()*float64(rate)), time.Second/time.Duration(rate), w.next, m)
	m.wall = st.verdicts
	m.note("serve.open_uploads", float64(len(st.late)))
	m.note("serve.generator_late_p99_ms", percentileMS(st.late, 99))
	m.note("serve.report_p50_ms", percentileMS(st.reports, 50))
	for first := true; first || time.Now().Before(deadline); first = false {
		start, done := time.Now(), 0
		m.timeCPU(func() { done = d.burst(w.e.scale.ServeBurst, w.next, m) })
		m.execs += done
		m.elapsed += time.Since(start)
	}
	got, err := d.report()
	if err != nil {
		m.fail(1, err)
	} else if want := d.expected(w.refs); got != want {
		m.fail(1, fmt.Errorf("merged report differs from core.AnalyzeLogs over the accepted uploads"))
	}
	return m
}

func (w *serveIngest) items() []item                 { return w.payloads.execs }
func (w *serveIngest) logSize() (bits, instr uint64) { return w.payloads.bits, w.payloads.instr }
func (w *serveIngest) close()                        { w.d.close() }
