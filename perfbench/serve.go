package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"vcoma"
	"vcoma/internal/fsio"
	"vcoma/internal/obs"
	"vcoma/internal/serve"
	"vcoma/internal/tlb"
)

// serveClients is the closed loop's client count and serveWorkers the
// server's simulation workers: the host's two CPUs.
const (
	serveClients = 2
	serveWorkers = 2
)

var (
	serveSchemes = []string{"l0", "l1", "l2", "l3", "vcoma"}
	serveOrgs    = []string{"fa", "dm"}
)

// cycleOps is one client's repeating job pattern: 4 first-time cells, 4
// repeats of completed cells and one key-equal pair, so 40% of the jobs are
// cold, 40% warm and 20% coalesced.
var cycleOps = []string{"cold", "warm", "cold", "warm", "pair", "cold", "warm", "cold", "warm"}

// service is an in-process server on a loopback listener.
type service struct {
	srv  *serve.Server
	ts   *httptest.Server
	stop context.CancelFunc
	dir  string
}

// startService opens a server on a fresh state directory, starts its
// workers and listener, and returns once /healthz answers ok.
func startService(dir string, fs *fsio.FS, parent *obs.Span) (*service, error) {
	sp := parent.StartChild("serve.new")
	srv, err := serve.New(serve.Options{StateDir: dir, Workers: serveWorkers, MaxQueue: 64, FS: fs})
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = parent.StartChild("serve.start")
	ctx, stop := context.WithCancel(context.Background())
	srv.Start(ctx)
	s := &service{srv: srv, ts: httptest.NewServer(srv.Handler()), stop: stop, dir: dir}
	sp.End()
	sp = parent.StartChild("serve.healthz")
	defer sp.End()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(s.ts.URL + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && string(body) == "ok\n" {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("serve: /healthz not ok after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the workers, releases the state directory, stops the
// listener and deletes the state directory, so repeated set-ups do not
// accumulate directories.
func (s *service) close() {
	s.stop()
	s.srv.Shutdown()
	s.ts.Close()
	os.RemoveAll(s.dir)
}

// client is one closed-loop user with its own connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submit posts one job and returns its key and state.
func (c *client) submit(req serve.Request) (key, state string, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", "", err
	}
	code, data, err := c.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return "", "", err
	}
	if code/100 != 2 {
		return "", "", fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	var out struct{ Key, State string }
	if err := json.Unmarshal(data, &out); err != nil {
		return "", "", fmt.Errorf("submit: %w", err)
	}
	return out.Key, out.State, nil
}

// wait follows the job's event stream until it reaches a terminal state.
func (c *client) wait(key string) error {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + key + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// Already retired from the queue's memory: the status endpoint
		// answers from the store.
		return c.status(key)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 4<<20) // status lines carry the job's progress log
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var st struct{ State string }
		if json.Unmarshal([]byte(data), &st) != nil {
			continue // a progress line
		}
		switch st.State {
		case "done":
			return nil
		case "failed", "canceled", "shed":
			return fmt.Errorf("job %.12s ended %s", key, st.State)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return c.status(key)
}

func (c *client) status(key string) error {
	code, data, err := c.do(http.MethodGet, "/v1/jobs/"+key, nil)
	if err != nil {
		return err
	}
	var st struct{ State string }
	if code != http.StatusOK || json.Unmarshal(data, &st) != nil || st.State != "done" {
		return fmt.Errorf("job %.12s: HTTP %d: %s", key, code, bytes.TrimSpace(data))
	}
	return nil
}

// result fetches a finished job's artifact.
func (c *client) result(key string) ([]byte, error) {
	code, data, err := c.do(http.MethodGet, "/v1/jobs/"+key+"/result", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("result %.12s: HTTP %d: %s", key, code, bytes.TrimSpace(data))
	}
	return data, nil
}

// mix generates one client's seeded cell sequence. First-time cells cycle
// through the six benchmarks in a shuffled order, so every run submits them
// in equal shares; scheme, TLB size and organization are drawn at random.
type mix struct {
	rng    *rand.Rand
	seed   uint64
	client int
	perm   []string
	drawn  int
	done   []completed
}

type completed struct {
	req  serve.Request
	body []byte
}

func newMix(seed uint64, client int) *mix {
	return &mix{rng: rand.New(rand.NewPCG(seed, uint64(client))), seed: seed, client: client}
}

func (m *mix) fresh() serve.Request {
	if len(m.perm) == 0 {
		m.perm = append([]string(nil), allBenches...)
		m.rng.Shuffle(len(m.perm), func(i, j int) { m.perm[i], m.perm[j] = m.perm[j], m.perm[i] })
	}
	bench := m.perm[0]
	m.perm = m.perm[1:]
	m.drawn++
	return serve.Request{
		Bench:  bench,
		Scheme: serveSchemes[m.rng.IntN(len(serveSchemes))],
		Scale:  "test",
		TLB:    tlb.PaperSizes[m.rng.IntN(len(tlb.PaperSizes))],
		Org:    serveOrgs[m.rng.IntN(len(serveOrgs))],
		// A distinct machine seed per drawn cell keeps every first-time
		// cell a new key.
		Seed:   m.seed<<32 | uint64(m.client)<<24 | uint64(m.drawn),
		Tenant: "client-" + strconv.Itoa(m.client),
	}
}

// jobSample is one job's latency, submit to result fetched.
type jobSample struct {
	kind     string // cold, warm or pair
	ms       float64
	submitMs float64
	resultMs float64
}

// cycleResult is what one client's cycle produced. Clients run concurrently,
// so each collects its own counts and the round merges them.
type cycleResult struct {
	jobs   []jobSample
	fails  []string
	sims   int
	events uint64
}

func (cr *cycleResult) fail(format string, args ...any) {
	cr.fails = append(cr.fails, fmt.Sprintf(format, args...))
}

// cycle runs one pass of cycleOps for a client. With a non-nil parent every
// job is recorded as a span with submit, wait and result children.
func cycle(c *client, m *mix, events map[string]uint64, parent *obs.Span) cycleResult {
	var cr cycleResult
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	timed := func(js *obs.Span, name string, d *time.Duration, f func() error) error {
		sp := js.StartChild(name)
		t0 := time.Now()
		err := f()
		*d = time.Since(t0)
		sp.End()
		return err
	}
	for _, op := range cycleOps {
		if op == "warm" && len(m.done) == 0 {
			continue
		}
		js := parent.StartChild("job." + op)
		var key, state string
		var body []byte
		var sub, res, wait time.Duration
		t0 := time.Now()
		switch op {
		case "cold":
			req := m.fresh()
			err := timed(js, "serve.submit", &sub, func() (err error) { key, state, err = c.submit(req); return err })
			if err == nil && state == "done" {
				err = errors.New("a first-time cell was served from the store")
			}
			if err == nil {
				err = timed(js, "serve.wait", &wait, func() error { return c.wait(key) })
			}
			if err == nil {
				err = timed(js, "serve.result", &res, func() (err error) { body, err = c.result(key); return err })
			}
			if err != nil {
				cr.fail("cold %s: %v", req.Bench, err)
				break
			}
			cr.jobs = append(cr.jobs, jobSample{"cold", ms(time.Since(t0)), ms(sub), ms(res)})
			cr.sims++
			cr.events += events[req.Bench]
			m.done = append(m.done, completed{req, body})
		case "warm":
			d := m.done[m.rng.IntN(len(m.done))]
			err := timed(js, "serve.submit", &sub, func() (err error) { key, state, err = c.submit(d.req); return err })
			if err == nil && state != "done" {
				err = fmt.Errorf("a completed cell was not served from the store (state %s)", state)
			}
			if err == nil {
				err = timed(js, "serve.result", &res, func() (err error) { body, err = c.result(key); return err })
			}
			if err == nil && !bytes.Equal(body, d.body) {
				err = errors.New("the stored artifact differs from the cold one")
			}
			if err != nil {
				cr.fail("warm %s: %v", d.req.Bench, err)
				break
			}
			cr.jobs = append(cr.jobs, jobSample{"warm", ms(time.Since(t0)), ms(sub), ms(res)})
		case "pair":
			req := m.fresh()
			var key2 string
			var sub2, res2 time.Duration
			var t1 time.Time
			var body2 []byte
			err := timed(js, "serve.submit", &sub, func() (err error) { key, _, err = c.submit(req); return err })
			if err == nil {
				t1 = time.Now()
				err = timed(js, "serve.submit", &sub2, func() (err error) { key2, _, err = c.submit(req); return err })
			}
			if err == nil && key2 != key {
				err = errors.New("key-equal submits got different keys")
			}
			if err == nil {
				err = timed(js, "serve.wait", &wait, func() error { return c.wait(key) })
			}
			var done1 time.Duration
			if err == nil {
				err = timed(js, "serve.result", &res, func() (err error) { body, err = c.result(key); return err })
				done1 = time.Since(t0)
			}
			if err == nil {
				err = timed(js, "serve.result", &res2, func() (err error) { body2, err = c.result(key); return err })
			}
			if err == nil && !bytes.Equal(body, body2) {
				err = errors.New("coalesced waiters got different artifacts")
			}
			if err != nil {
				cr.fail("pair %s: %v", req.Bench, err)
				break
			}
			cr.jobs = append(cr.jobs,
				jobSample{"pair", ms(done1), ms(sub), ms(res)},
				jobSample{"pair", ms(time.Since(t1)), ms(sub2), ms(res2)})
			cr.sims++
			cr.events += events[req.Bench]
			m.done = append(m.done, completed{req, body})
		}
		js.End()
	}
	return cr
}

// round runs one cycle on every client concurrently and merges the results
// into r once all have finished.
func round(r *run, clients []*client, mixes []*mix, events map[string]uint64, parent *obs.Span) (jobs []jobSample, sims int, ev uint64, wall time.Duration) {
	results := make([]cycleResult, len(clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = cycle(clients[i], mixes[i], events, parent)
		}(i)
	}
	wg.Wait()
	wall = time.Since(t0)
	for _, cr := range results {
		for range cr.jobs {
			r.rec.op()
		}
		for _, f := range cr.fails {
			r.rec.op()
			r.rec.fail("serve-mixed: %s", f)
		}
		jobs = append(jobs, cr.jobs...)
		sims += cr.sims
		ev += cr.events
	}
	return jobs, sims, ev, wall
}

// simsExecuted reads vcoma_serve_sims_executed from /metrics.
func simsExecuted(c *client) (int, error) {
	code, data, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("/metrics: HTTP %d", code)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "vcoma_serve_sims_executed "); ok {
			return strconv.Atoi(strings.TrimSpace(v))
		}
	}
	return 0, errors.New("/metrics has no vcoma_serve_sims_executed")
}

// loopStats is a closed-loop phase's samples.
type loopStats struct {
	jobs                 []jobSample
	walls, rates, jrates []float64
	sims                 int
}

// minRounds is the least number of rounds a closed-loop phase runs.
const minRounds = 2

// loop runs rounds on svc until the phase's time is up (at least minRounds),
// then checks the server executed exactly the expected simulations.
func loop(r *run, svc *service, mixes []*mix, events map[string]uint64, seconds float64, parent func() *obs.Span) loopStats {
	var ls loopStats
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = newClient(svc.ts.URL)
		defer clients[i].hc.CloseIdleConnections()
	}
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start).Seconds() < seconds; n++ {
		sp := parent()
		jobs, sims, ev, wall := round(r, clients, mixes, events, sp)
		sp.End()
		ls.jobs = append(ls.jobs, jobs...)
		ls.sims += sims
		ls.walls = append(ls.walls, wall.Seconds())
		ls.rates = append(ls.rates, float64(ev)/wall.Seconds())
		ls.jrates = append(ls.jrates, float64(len(jobs))/wall.Seconds())
	}
	r.rec.op()
	got, err := simsExecuted(clients[0])
	if r.rec.check(err) && got != ls.sims {
		r.rec.fail("serve-mixed: the server executed %d simulations, expected %d", got, ls.sims)
	}
	return ls
}

func msOf(jobs []jobSample, kind string, field func(jobSample) float64) []float64 {
	var out []float64
	for _, j := range jobs {
		if kind == "" || j.kind == kind {
			out = append(out, field(j))
		}
	}
	return out
}

// serveMixed drives an in-process server on loopback with a closed loop of
// two clients submitting a seeded mix of test-scale cells.
func serveMixed(r *run) error {
	events, err := benchEvents(allBenches, vcoma.ScaleTest)
	if err != nil {
		return err
	}
	var svc *service // the last trial's server carries the load
	setups, err := setupSamples(func(i int) (time.Duration, error) {
		if svc != nil {
			svc.close()
		}
		t0 := time.Now()
		s, err := startService(filepath.Join(r.work, "state-"+strconv.Itoa(i)), nil, nil)
		svc = s
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	mixes := make([]*mix, serveClients)
	for i := range mixes {
		mixes[i] = newMix(r.seed, i)
	}
	noSpan := func() *obs.Span { return nil }
	if r.traced {
		seconds := r.seconds - time.Since(r.start).Seconds()
		ref := loop(r, svc, mixes, events, seconds/2, noSpan)
		svc.close()
		// The traced phase runs on a fresh server whose store holds none
		// of the cells completed so far.
		for _, m := range mixes {
			m.done = nil
		}
		return serveTraced(r, mixes, events, seconds/2, ref)
	}
	ls := loop(r, svc, mixes, events, r.seconds-time.Since(r.start).Seconds(), noSpan)
	svc.close()
	all := func(j jobSample) float64 { return j.ms }
	r.rec.set("setup_s", median(setups))
	r.rec.set("wall_s", median(ls.walls))
	r.rec.set("events_per_s", median(ls.rates))
	r.rec.set("jobs_per_s", median(ls.jrates))
	r.rec.set("job_ms_p50", median(msOf(ls.jobs, "", all)))
	r.rec.set("job_ms_p95", quantile(msOf(ls.jobs, "", all), 0.95))
	r.rec.set("cold_job_ms_p50", median(msOf(ls.jobs, "cold", all)))
	r.rec.set("warm_job_ms_p50", median(msOf(ls.jobs, "warm", all)))
	return nil
}

// serveTraced runs the traced phase on a second server: its set-up and every
// round under spans, with an op recorder on the server's filesystem seam.
func serveTraced(r *run, mixes []*mix, events map[string]uint64, seconds float64, ref loopStats) error {
	tr := obs.NewTrace("serve-mixed")
	fs := fsio.New(nil)
	ops := fsio.NewRecorder(r.work, false)
	fs.SetRecorder(ops)
	t0 := time.Now()
	setup := tr.StartSpan("setup")
	svc, err := startService(filepath.Join(r.work, "state-traced"), fs, setup)
	setup.End()
	if err != nil {
		return err
	}
	ls := loop(r, svc, mixes, events, seconds, func() *obs.Span { return tr.StartSpan("serve") })
	svc.close()
	wall := time.Since(t0)
	finishTrace(r, "serve-mixed", tr, wall)
	var accepted []float64 // submits answered 202: first-time cells and pairs
	for _, j := range ls.jobs {
		if j.kind != "warm" {
			accepted = append(accepted, j.submitMs)
		}
	}
	r.rec.set("serve.submit_ms_p50", median(accepted))
	r.rec.set("serve.result_ms_p50", median(msOf(ls.jobs, "", func(j jobSample) float64 { return j.resultMs })))
	r.rec.set("serve.sims_per_job", float64(ls.sims)/float64(len(ls.jobs)))
	setFsio(r, fs, ops)
	r.rec.set("trace.overhead_ratio", median(ls.walls)/median(ref.walls))
	return nil
}
