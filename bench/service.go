package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/kernels"
	"warpedgates/internal/serve"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
)

// dupShare is the share of submissions that repeat an earlier job.
const dupShare = 0.3

// resimEvery sets how many unique service jobs share one re-simulation check.
const resimEvery = 20

// service is the service_open_loop workload: an in-process simulation
// service over a fresh store, served over TLS with HTTP/2 so that the whole
// open loop shares one connection, and loaded by Poisson arrivals.
type service struct {
	e      *env
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func setupService(ctx context.Context, e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.work, "serve-")
	if err != nil {
		return nil, err
	}
	st, err := store.OpenFS(storeFS(e.tr), dir, store.DefaultRetry())
	if err != nil {
		return nil, err
	}
	// Quotas are off: the one generator stands in for many independent users.
	srv, err := serve.NewServer(serve.Options{Base: config.GTX480(), Store: st, Workers: e.nproc, QuotaRate: -1, QuotaBurst: -1})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewUnstartedServer(srv)
	ts.EnableHTTP2 = true
	ts.StartTLS()
	s := &service{e: e, dir: dir, srv: srv, ts: ts, client: ts.Client()}
	// One request opens the connection every later request shares.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err != nil {
		s.close()
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		s.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.ProtoMajor != 2 {
		s.close()
		return nil, fmt.Errorf("service: connection speaks %s, want HTTP/2", resp.Proto)
	}
	return s, nil
}

func (s *service) close() {
	s.ts.Close()
	s.srv.Close()
	os.RemoveAll(s.dir)
}

// arrival is one planned submission.
type arrival struct {
	at       time.Duration // when to send, from the start of the open loop
	req      serve.JobRequest
	repeat   bool // the request repeats an earlier submission's
	measured bool // sent after the warm-up
}

// plan draws the open loop's submissions from the seed. Arrivals form a
// Poisson process conditioned on its count: rate×warmup of them uniform over
// the warm-up and rate×(seconds−warmup) uniform over the rest, so every run
// of a given length sends the same number of measured requests. Exactly
// dupShare of the submissions repeat an earlier one. Fresh jobs are dealt
// from a shuffled deck of every (bench, technique, SMs, scale) combination,
// each with a fresh simulation seed, so every seed offers the same mix of
// work and differs only in its order.
func plan(seed uint64, size sizing, seconds float64) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x5e4e))
	warm := warmup(size, seconds)
	nWarm := int(size.serveRate*warm + 0.5)
	nMeas := max(1, int(size.serveRate*(seconds-warm)+0.5))
	times := func(n int, from, to float64) []float64 {
		ts := make([]float64, n)
		for i := range ts {
			ts[i] = from + rng.Float64()*(to-from)
		}
		sort.Float64s(ts)
		return ts
	}
	at := append(times(nWarm, 0, warm), times(nMeas, warm, seconds)...)
	n := len(at)

	repeat := make([]bool, n)
	for _, i := range rng.Perm(n - 1)[:int(dupShare*float64(n-1)+0.5)] {
		repeat[i+1] = true
	}
	var deck []serve.JobRequest
	for _, b := range kernels.BenchmarkNames {
		for _, t := range core.AllTechniques() {
			for _, sms := range []int{2, 4} {
				for _, sc := range size.serveScales {
					deck = append(deck, serve.JobRequest{Bench: b, Technique: t.String(), SMs: sms, Scale: sc})
				}
			}
		}
	}
	next := len(deck)
	out := make([]arrival, n)
	for i, t := range at {
		a := arrival{at: time.Duration(t * float64(time.Second)), measured: i >= nWarm, repeat: repeat[i]}
		if a.repeat {
			a.req = out[rng.IntN(i)].req
		} else {
			if next == len(deck) {
				rng.Shuffle(len(deck), func(x, y int) { deck[x], deck[y] = deck[y], deck[x] })
				next = 0
			}
			a.req = deck[next]
			next++
			seed := rng.Uint64()
			a.req.Seed = &seed
		}
		out[i] = a
	}
	return out
}

// warmup is how many seconds at the start of an open loop are excluded from
// its samples: the sizing's warm-up, but never more than half the run.
func warmup(size sizing, seconds float64) float64 {
	return min(size.serveWarmup, seconds/2)
}

// jobConfig is the configuration the service runs a request under, built
// the way a client reads the API: technique on the GTX480, then the
// request's SM count and seed.
func jobConfig(req serve.JobRequest) (config.Config, error) {
	t, err := core.ParseTechnique(req.Technique)
	if err != nil {
		return config.Config{}, err
	}
	cfg := t.Apply(config.GTX480())
	cfg.NumSMs = req.SMs
	cfg.Seed = *req.Seed
	return cfg, nil
}

// record is what happened to one submission.
type record struct {
	sched, sent, submitted, running, done, fetched time.Time

	status  int    // POST /v1/jobs status
	id      string // job id the service returned
	payload []byte
	err     error
}

func ms(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }

func (s *service) run(ctx context.Context, seconds float64, tr *tracer) (phases, error) {
	ps := newPhases(tr)
	arrivals := plan(s.e.seed, s.e.size, seconds)
	// Each measured submission belongs to one half; warm-up ones to none.
	half := make([]*phase, len(arrivals))
	tracers := make([]*tracer, len(arrivals))
	k := 0
	for i, a := range arrivals {
		if a.measured {
			half[i], tracers[i] = ps.pick(tr, k)
			k++
		}
	}
	sims0 := s.srv.Simulations()
	recs := make([]record, len(arrivals))
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = s.job(ctx, due, a.req)
			if tracers[i] != nil {
				s.spans(tracers[i], &recs[i])
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return ps, err
	}
	windowStart := start.Add(time.Duration(warmup(s.e.size, seconds) * float64(time.Second)))
	sims := s.srv.Simulations() - sims0
	for _, p := range []*phase{ps.u, ps.t} {
		if p != nil {
			s.measure(p, arrivals, half, recs, windowStart)
			p.layers.set("serve.sims", float64(sims))
		}
	}
	if err := s.check(ctx, arrivals, recs, ps, sims); err != nil {
		return ps, err
	}
	if tr != nil {
		tr.serviceLayers(ps.t.layers)
	}
	return ps, nil
}

// job submits one request, follows its SSE stream until the job ends, and
// fetches its report.
func (s *service) job(ctx context.Context, due time.Time, jr serve.JobRequest) (rec record) {
	rec.sched, rec.sent = due, time.Now()
	body, err := json.Marshal(jr)
	if err != nil {
		rec.err = err
		return rec
	}
	var st serve.JobStatus
	rec.status, err = s.do(ctx, http.MethodPost, "/v1/jobs", body, "", func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	})
	rec.submitted, rec.id = time.Now(), st.ID
	if err == nil && rec.status != http.StatusAccepted && rec.status != http.StatusOK {
		err = fmt.Errorf("service: submit answered %d", rec.status)
	}
	if err != nil {
		rec.err = err
		return rec
	}
	var final serve.State
	_, err = s.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil, "text/event-stream", func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev serve.JobStatus
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return err
			}
			now := time.Now()
			if ev.State != serve.StateQueued && rec.running.IsZero() {
				rec.running = now
			}
			if ev.State == serve.StateDone || ev.State == serve.StateFailed || ev.State == serve.StateCanceled {
				rec.done, final = now, ev.State
				return nil
			}
		}
		return sc.Err()
	})
	if err == nil && final != serve.StateDone {
		err = fmt.Errorf("service: job %s ended %q", st.ID, final)
	}
	if err != nil {
		rec.err = err
		return rec
	}
	var status int
	status, err = s.do(ctx, http.MethodGet, "/v1/reports/"+st.ID, nil, "", func(r io.Reader) (err error) {
		rec.payload, err = io.ReadAll(r)
		return err
	})
	rec.fetched = time.Now()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("service: report fetch answered %d", status)
	}
	rec.err = err
	return rec
}

// do sends one request over the shared connection and hands the body to
// read. Every exchange must travel over HTTP/2.
func (s *service) do(ctx context.Context, method, path string, body []byte, accept string, read func(io.Reader) error) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.ProtoMajor != 2 {
		return resp.StatusCode, fmt.Errorf("service: %s %s went over %s, want HTTP/2", method, path, resp.Proto)
	}
	if resp.StatusCode >= 300 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, read(resp.Body)
}

// spans records a finished submission's spans: serve.job from its
// scheduled send to its last report byte, and under it the submit, queue
// (202 to the first SSE event past queued), run and report fetch.
func (s *service) spans(tr *tracer, r *record) {
	if r.err != nil {
		return
	}
	id := hashOf(r.id)
	job := tr.add(span{name: spanServeJob, job: id, start: tr.at(r.sched), end: tr.at(r.fetched), parent: -1})
	for _, c := range []struct {
		name     spanName
		from, to time.Time
	}{
		{spanSubmit, r.sent, r.submitted},
		{spanQueue, r.submitted, r.running},
		{spanServeRun, r.running, r.done},
		{spanReport, r.done, r.fetched},
	} {
		tr.add(span{name: c.name, job: id, start: tr.at(c.from), end: tr.at(c.to), parent: job})
	}
}

// measure turns the records of the submissions in phase p into its
// end-to-end samples and the service's per-layer metrics.
func (s *service) measure(p *phase, arrivals []arrival, half []*phase, recs []record, windowStart time.Time) {
	var lat, submit, queue, run, report, late []float64
	var accepted, dups, rejected, repeats, repeatHits, mine, all int
	var last time.Time
	for i, r := range recs {
		if half[i] == nil {
			continue
		}
		all++
		if r.err == nil && r.fetched.After(last) {
			last = r.fetched
		}
		if half[i] != p {
			continue
		}
		mine++
		late = append(late, ms(r.sched, r.sent))
		switch r.status {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK:
			dups++
		default:
			rejected++
		}
		if arrivals[i].repeat {
			repeats++
			if r.status == http.StatusOK {
				repeatHits++
			}
		}
		if r.err != nil {
			continue
		}
		lat = append(lat, ms(r.sched, r.fetched))
		submit = append(submit, ms(r.sent, r.submitted))
		report = append(report, ms(r.done, r.fetched))
		if r.status == http.StatusAccepted {
			queue = append(queue, ms(r.submitted, r.running))
			run = append(run, ms(r.running, r.done))
		}
	}
	p.latMS = lat
	p.reports = len(lat)
	// The window runs to the last report of either half. In a traced run
	// each half got only its share of the window's arrivals, so it is
	// charged only that share of the window.
	p.busy = last.Sub(windowStart).Seconds() * ratio(float64(mine), float64(all))
	m := p.layers
	tail := func(name string, xs []float64, pct float64) {
		s := sorted(xs)
		v := value{V: percentile(s, pct), N: len(s)}
		if !reportable(pct, len(s)) {
			v.Note = fmt.Sprintf("(below the 10-samples-beyond rule; p%g is the highest it supports)", highestPercentile(len(s)))
		}
		m[name] = v
	}
	tail("serve.latency_p99_ms", lat, 99)
	for _, x := range []struct {
		name string
		xs   []float64
	}{{"serve.submit_ms", submit}, {"serve.queue_ms", queue}} {
		s := sorted(x.xs)
		m.setN(x.name+"_p50", median(s), len(s))
		tail(x.name+"_p99", x.xs, 99)
	}
	m.setN("serve.run_ms_p50", median(sorted(run)), len(run))
	m.setN("serve.report_ms_p50", median(sorted(report)), len(report))
	m.set("serve.accepted", float64(accepted))
	m.set("serve.duplicates", float64(dups))
	m.set("serve.rejected", float64(rejected))
	m.set("serve.dup_hit_frac", ratio(float64(repeatHits), float64(repeats)))
	tail("gen.late_p99_ms", late, 99)
	m.set("gen.samples", float64(len(late)))
}

// check verifies the service's outputs: every submission succeeded; every
// submission of one job got byte-identical report bytes; every report
// conserves work; no job was simulated twice; and one unique job in
// resimEvery, re-simulated on a plain runner, fingerprints the same.
func (s *service) check(ctx context.Context, arrivals []arrival, recs []record, ps phases, sims uint64) error {
	c := s.e.check
	type unique struct {
		req     serve.JobRequest
		payload []byte
	}
	byID := make(map[string]*unique)
	for i, r := range recs {
		c.op(r.err)
		if r.err != nil {
			continue
		}
		u, ok := byID[r.id]
		if !ok {
			byID[r.id] = &unique{arrivals[i].req, r.payload}
			continue
		}
		if !bytes.Equal(u.payload, r.payload) {
			c.op(fmt.Errorf("service: job %s returned different report bytes to two submissions", r.id))
		}
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sameSims error
	if sims != uint64(len(ids)) {
		sameSims = fmt.Errorf("service: %d simulations for %d unique jobs", sims, len(ids))
	}
	c.op(sameSims)
	reps := make([]keyed, 0, len(ids))
	for i, id := range ids {
		u := byID[id]
		cfg, err := jobConfig(u.req)
		if err != nil {
			return err
		}
		key := core.JobKey(u.req.Bench, cfg, u.req.Scale)
		rep, err := sim.DecodeReport(u.payload)
		if err == nil && store.HashKey(key) != id {
			err = fmt.Errorf("service: job id %s does not address key %q", id, key)
		}
		if err == nil {
			err = conserves(u.req.Bench, cfg, u.req.Scale, rep)
		}
		c.op(err)
		if err != nil {
			continue
		}
		reps = append(reps, keyed{key, rep})
		if i%resimEvery == 0 {
			c.op(resimulate(ctx, u.req.Bench, cfg, u.req.Scale, rep))
		}
	}
	// The halves share one server, so the outputs are those of the whole
	// run, the same for both.
	for _, p := range []*phase{ps.u, ps.t} {
		if p != nil {
			modelMetrics(reps, p.model)
		}
	}
	return nil
}

// resimulate runs one job again on a plain runner and compares the
// fingerprints.
func resimulate(ctx context.Context, bench string, cfg config.Config, scale float64, served *sim.Report) error {
	r := core.NewRunner(config.GTX480())
	r.Scale = scale
	fresh, err := r.RunCfgCtx(ctx, bench, cfg)
	if err != nil {
		return err
	}
	if core.FingerprintReport(fresh) != core.FingerprintReport(served) {
		return fmt.Errorf("service: served report for %s differs from a fresh simulation", core.JobKey(bench, cfg, scale))
	}
	return nil
}
