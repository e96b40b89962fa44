package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/paper"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
	"warpedgates/internal/sweep"
)

// sizing fixes how much work each workload does. fullSizing is the
// benchmark's; tinySizing exists only so the smoke test can run every
// workload in a few seconds.
type sizing struct {
	matrixSMs   int     // paper_matrix machine size
	matrixScale float64 // paper_matrix kernel scale
	cellSeeds   int     // small_cells seeds per round (18×6 cells each)
	cellScale   float64 // small_cells and store_replay kernel scale
	replaySeeds int     // store_replay seeds in the replayed store
	largeScale  float64 // large_runs kernel scale
	serveRate   float64 // service arrivals per second
	serveWarmup float64 // service seconds excluded from the samples
	serveScales []float64
}

var fullSizing = sizing{
	matrixSMs: 15, matrixScale: 0.1,
	cellSeeds: 8, cellScale: 0.1,
	replaySeeds: 4,
	largeScale:  0.5,
	serveRate:   60, serveWarmup: 1, serveScales: []float64{0.1, 0.25},
}

var tinySizing = sizing{
	matrixSMs: 2, matrixScale: 0.02,
	cellSeeds: 1, cellScale: 0.02,
	replaySeeds: 1,
	largeScale:  0.02,
	serveRate:   60, serveWarmup: 0.2, serveScales: []float64{0.02},
}

// largeBenches straddle the phase-split engine's win and loss on two cores:
// lbm and MUM gain from intra-run workers, hotspot and nw lose.
var largeBenches = []string{"lbm", "MUM", "kmeans", "sgemm", "hotspot", "nw"}

// env is what a workload's set-up receives.
type env struct {
	seed  uint64
	size  sizing
	nproc int
	work  string // directory for the workload's stores, removed at exit
	check *checker
	tr    *tracer // non-nil in a traced run: the service's store is traced from set-up on
}

// instance is a workload set up and ready to measure.
type instance interface {
	// run performs the timed phase for about seconds. With tr non-nil the
	// phase's requests alternate between untraced and traced ones, and
	// the traced ones record spans into tr.
	run(ctx context.Context, seconds float64, tr *tracer) (phases, error)
	close()
}

// phase is what the untraced or the traced requests of a timed phase
// measured.
type phase struct {
	latMS   []float64 // one latency per request
	perReq  int       // reports per request, for a batch workload
	reports int       // reports delivered, for the service
	busy    float64   // the service's measured window, to its last report, times this phase's share of its arrivals
	instrs  uint64    // warp-instructions simulated per request
	model   metrics   // simulated-time statistics of the outputs
	layers  metrics   // per-layer metrics
	digest  string    // digest of one request's outputs; "" where none is committed
}

func newPhase() *phase { return &phase{model: metrics{}, layers: metrics{}} }

// throughput is reports per second: for a batch workload the reports one
// request delivers over the median request latency, which a second of slow
// host moves far less than it moves a total over the whole phase.
func (p *phase) throughput() float64 {
	if p.perReq > 0 {
		return ratio(float64(p.perReq)*1e3, median(sorted(p.latMS)))
	}
	return ratio(float64(p.reports), p.busy)
}

// delivered is how many reports the phase's requests delivered.
func (p *phase) delivered() int {
	if p.perReq > 0 {
		return p.perReq * len(p.latMS)
	}
	return p.reports
}

// phases are the two halves of a timed phase: u the untraced requests and,
// in a traced run, t the traced ones.
type phases struct{ u, t *phase }

func newPhases(tr *tracer) phases {
	ps := phases{u: newPhase()}
	if tr != nil {
		ps.t = newPhase()
	}
	return ps
}

// pick returns the phase request i belongs to and the tracer it records
// into (nil for untraced requests). Requests alternate untraced, traced,
// traced, untraced, so that both halves see the same drift in host speed.
func (ps phases) pick(tr *tracer, i int) (*phase, *tracer) {
	if tr != nil && (i%4 == 1 || i%4 == 2) {
		return ps.t, tr
	}
	return ps.u, nil
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	setup func(ctx context.Context, e *env) (instance, error)
}

var workloads = []workload{
	{"paper_matrix", setupMatrix},
	{"small_cells", setupCells},
	{"store_replay", setupReplay},
	{"large_runs", setupLarge},
	{"service_open_loop", setupService},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simSeed derives the i-th simulation seed of a benchmark seed (SplitMix64),
// so that every workload's configs change with --seed.
func simSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rounds calls round until seconds have passed since the first call began.
// It always finishes the round in progress, and runs at least one round, or
// in a traced run (tr non-nil) at least one traced and one untraced round.
func rounds(ctx context.Context, seconds float64, tr *tracer, round func(i int) error) error {
	least := 1
	if tr != nil {
		least = 2
	}
	start := time.Now()
	for i := 0; i < least || time.Since(start).Seconds() < seconds; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if tr != nil {
			tr.beginRound(i)
		}
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// timed runs f and returns its wall time in seconds, recording it as a span
// called name (with job id job) when tr is non-nil.
func timed(tr *tracer, name spanName, job hash, f func() error) (float64, error) {
	var start int64
	if tr != nil {
		start = tr.now()
	}
	t0 := time.Now()
	err := f()
	d := time.Since(t0).Seconds()
	if tr != nil {
		tr.add(span{name: name, job: job, start: start, end: tr.now(), parent: -1})
	}
	return d, err
}

// addRound folds one request of a batch workload into the phase and checks
// its reports.
func (p *phase) addRound(c *checker, seconds, scale float64, reps []keyed) {
	p.latMS = append(p.latMS, seconds*1e3)
	p.perReq = len(reps)
	p.instrs = 0
	for _, r := range reps {
		p.instrs += r.rep.IssuedTotal
	}
	p.check(c, scale, reps)
}

// check checks one request's reports: each must conserve work, and their
// digest must equal that of the phase's first request, whose digest and
// modelled statistics the phase keeps.
func (p *phase) check(c *checker, scale float64, reps []keyed) {
	for _, r := range reps {
		c.op(conserves(r.rep.Benchmark, r.rep.Config, scale, r.rep))
	}
	d := digest(reps)
	if p.digest == "" {
		p.digest = d
		modelMetrics(reps, p.model)
		return
	}
	var err error
	if d != p.digest {
		err = fmt.Errorf("outputs differ from the first request's (digest %s, want %s)", d, p.digest)
	}
	c.op(err)
}

// keyReports pairs each job's report with its canonical key.
func keyReports(jobs []core.Job, scale float64, reps []*sim.Report) []keyed {
	out := make([]keyed, len(jobs))
	for i, j := range jobs {
		out[i] = keyed{core.JobKey(j.Bench, j.Cfg, scale), reps[i]}
	}
	return out
}

// runMany runs one batch request through a fresh runner and records it in
// its phase. The request is the RunManyCtx call.
func runMany(ctx context.Context, e *env, r *core.Runner, jobs []core.Job, p *phase, tr *tracer) error {
	r.Parallelism = e.nproc
	if tr != nil {
		tr.hook(r)
	}
	var reps []*sim.Report
	d, err := timed(tr, spanRound, hash{}, func() (err error) {
		reps, err = r.RunManyCtx(ctx, jobs)
		return err
	})
	if err != nil {
		return err
	}
	p.addRound(e.check, d, r.Scale, keyReports(jobs, r.Scale, reps))
	return nil
}

// matrix is the paper_matrix workload: the paper's 18 benchmarks × 6
// techniques on the GTX480 through a fresh runner per request, no store.
type matrix struct {
	e    *env
	base config.Config
	jobs []core.Job
}

func setupMatrix(_ context.Context, e *env) (instance, error) {
	base := config.GTX480()
	base.NumSMs = e.size.matrixSMs
	base.Seed = simSeed(e.seed, 0)
	m := &matrix{e: e, base: base}
	for _, b := range kernels.BenchmarkNames {
		for _, t := range core.AllTechniques() {
			m.jobs = append(m.jobs, core.Job{Bench: b, Cfg: t.Apply(base)})
		}
	}
	return m, nil
}

func (m *matrix) close() {}

func (m *matrix) run(ctx context.Context, seconds float64, tr *tracer) (phases, error) {
	ps := newPhases(tr)
	err := rounds(ctx, seconds, tr, func(i int) error {
		p, rt := ps.pick(tr, i)
		r := core.NewRunner(m.base)
		r.Scale = m.e.size.matrixScale
		first := p.digest == ""
		if err := runMany(ctx, m.e, r, m.jobs, p, rt); err != nil {
			return err
		}
		if first {
			return fig9(r, p.model)
		}
		return nil
	})
	if err == nil && tr != nil {
		tr.runnerLayers(ps.t.layers, m.e.nproc)
	}
	return ps, err
}

// fig9 adds the paper's Figure 9 suite averages for Warped Gates, computed
// by core.RunFig9 from the runner's cached reports (no new simulations).
func fig9(r *core.Runner, m metrics) error {
	for _, f := range []struct {
		name  string
		class isa.Class
		paper float64
	}{
		{"power.fig9a_wg_int_savings", isa.INT, paper.Fig9aINTSavings["WarpedGates"]},
		{"power.fig9b_wg_fp_savings", isa.FP, paper.Fig9bFPSavings["WarpedGates"]},
	} {
		res, err := core.RunFig9(r, f.class)
		if err != nil {
			return err
		}
		m[f.name] = value{V: res.Average[core.WarpedGates], Note: fmt.Sprintf("paper=%g", f.paper)}
	}
	return nil
}

// grid expands seeds × the paper's 18×6 matrix on the 2-SM machine.
func grid(e *env, seeds []uint64) (config.Config, []sweep.Cell, []core.Job, error) {
	base := config.Small()
	cells, err := sweep.Expand(sweep.Spec{Seeds: seeds, SMs: []int{base.NumSMs}, Scales: []float64{e.size.cellScale}}, base)
	if err != nil {
		return base, nil, nil, err
	}
	jobs := make([]core.Job, len(cells))
	for i, c := range cells {
		jobs[i] = core.Job{Bench: c.Bench, Cfg: c.Config(base)}
	}
	return base, cells, jobs, nil
}

// seedList returns n simulation seeds starting at offset.
func seedList(seed uint64, offset, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = simSeed(seed, offset+i)
	}
	return out
}

// storeFS is the filesystem a store runs on: the real one, timed when
// tracing.
func storeFS(tr *tracer) store.FS {
	if tr != nil {
		return tr.fs(store.OSFS{})
	}
	return store.OSFS{}
}

// cells is the small_cells workload: many short cells on the 2-SM machine,
// each committed to an on-disk store that is fresh for every request.
type cells struct {
	e    *env
	base config.Config
	jobs []core.Job
}

func setupCells(_ context.Context, e *env) (instance, error) {
	base, _, jobs, err := grid(e, seedList(e.seed, 0, e.size.cellSeeds))
	if err != nil {
		return nil, err
	}
	return &cells{e: e, base: base, jobs: jobs}, nil
}

func (c *cells) close() {}

func (c *cells) run(ctx context.Context, seconds float64, tr *tracer) (phases, error) {
	ps := newPhases(tr)
	err := rounds(ctx, seconds, tr, func(i int) error {
		p, rt := ps.pick(tr, i)
		dir, err := os.MkdirTemp(c.e.work, "cells-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := store.OpenFS(storeFS(rt), dir, store.DefaultRetry())
		if err != nil {
			return err
		}
		r := core.NewRunner(c.base)
		r.Scale = c.e.size.cellScale
		r.Store = st
		if err := runMany(ctx, c.e, r, c.jobs, p, rt); err != nil {
			return err
		}
		h := st.Health()
		var werr error
		if h.Writes != uint64(len(c.jobs)) || h.WriteErrors != 0 {
			werr = fmt.Errorf("small_cells: store committed %d of %d reports (%d write errors)", h.Writes, len(c.jobs), h.WriteErrors)
		}
		c.e.check.op(werr)
		storeCounts(p.layers, h)
		return nil
	})
	if err == nil && tr != nil {
		tr.runnerLayers(ps.t.layers, c.e.nproc)
	}
	return ps, err
}

// storeCounts sets the store's counters for one request. Every request of a
// workload does the same, so the counts are exact.
func storeCounts(m metrics, h store.Health) {
	m.set("store.hits", float64(h.Hits))
	m.set("store.misses", float64(h.Misses))
	m.set("store.writes", float64(h.Writes))
}

// replay is the store_replay workload: set-up fills a store, and every
// request reads all of it back through a fresh sweep engine, simulating
// nothing.
type replay struct {
	e     *env
	base  config.Config
	cells []sweep.Cell
	dir   string
}

func setupReplay(ctx context.Context, e *env) (instance, error) {
	base, cells, jobs, err := grid(e, seedList(e.seed, 1000, e.size.replaySeeds))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, "replay-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	r := core.NewRunner(base)
	r.Scale = e.size.cellScale
	r.Parallelism = e.nproc
	r.Store = st
	if _, err := r.RunManyCtx(ctx, jobs); err != nil {
		return nil, fmt.Errorf("store_replay: filling the store: %w", err)
	}
	if h := st.Health(); h.Writes != uint64(len(jobs)) {
		return nil, fmt.Errorf("store_replay: store committed %d of %d reports", h.Writes, len(jobs))
	}
	return &replay{e: e, base: base, cells: cells, dir: dir}, nil
}

func (r *replay) close() { os.RemoveAll(r.dir) }

func (r *replay) run(ctx context.Context, seconds float64, tr *tracer) (phases, error) {
	ps := newPhases(tr)
	// The reopened store, once over the plain filesystem and, in a traced
	// run, once over the timed one: two handles on the same directory.
	plain, err := store.OpenFS(store.OSFS{}, r.dir, store.DefaultRetry())
	if err != nil {
		return ps, err
	}
	traced := plain
	if tr != nil {
		if traced, err = store.OpenFS(tr.fs(store.OSFS{}), r.dir, store.DefaultRetry()); err != nil {
			return ps, err
		}
	}
	var first []sweep.CellResult
	var sims uint64
	n := len(r.cells)
	err = rounds(ctx, seconds, tr, func(i int) error {
		p, rt := ps.pick(tr, i)
		eng := &sweep.Engine{Base: r.base, Store: plain, Parallelism: r.e.nproc}
		if rt != nil {
			eng.Store = traced
			eng.Progress = func(_, _ int, res sweep.CellResult) {
				now := rt.now()
				rt.add(span{name: spanCell, job: hashOf(store.HashKey(res.Key)), start: now, end: now, parent: -1})
			}
		}
		h0 := eng.Store.Health()
		var rep *sweep.Report
		d, err := timed(rt, spanPass, hash{}, func() (err error) {
			rep, err = eng.RunCells(ctx, r.cells)
			return err
		})
		if err != nil {
			return err
		}
		sims += eng.Simulations()
		hits := eng.Store.Health().Hits - h0.Hits
		p.latMS = append(p.latMS, d*1e3)
		p.perReq = n
		var perr error
		switch {
		case rep.Failed > 0:
			perr = fmt.Errorf("store_replay: %d of %d cells failed: %s", rep.Failed, n, firstErr(rep.Results))
		case eng.Simulations() != 0 || rep.Simulated != 0:
			perr = fmt.Errorf("store_replay: a pass simulated %d cells, want 0", eng.Simulations())
		case hits != uint64(n) || rep.StoreHits != n:
			perr = fmt.Errorf("store_replay: a pass read %d store hits, want %d", hits, n)
		case first != nil && !sameResults(first, rep.Results):
			perr = fmt.Errorf("store_replay: pass %d read different cells than the first pass", i)
		}
		r.e.check.op(perr)
		storeCounts(p.layers, store.Health{Hits: hits})
		if first == nil {
			first = rep.Results
		}
		if p.digest == "" {
			return r.checkFirst(eng, p)
		}
		return nil
	})
	ps.u.layers.set("sweep.sims", float64(sims))
	if err == nil && tr != nil {
		ps.t.layers.set("sweep.sims", float64(sims))
		tr.replayLayers(ps.t.layers)
	}
	return ps, err
}

// checkFirst checks a phase's first pass, read back from the engine's
// cache: each report must conserve work, and their digest is the
// workload's.
func (r *replay) checkFirst(eng *sweep.Engine, p *phase) error {
	ks := make([]keyed, 0, len(r.cells))
	for _, c := range r.cells {
		key := c.Key(r.base)
		rep, ok := eng.CachedReport(key)
		if !ok {
			return fmt.Errorf("store_replay: no cached report for %s", key)
		}
		ks = append(ks, keyed{key, rep})
	}
	p.check(r.e.check, r.e.size.cellScale, ks)
	return nil
}

func firstErr(rs []sweep.CellResult) string {
	for _, r := range rs {
		if r.Err != "" {
			return r.Err
		}
	}
	return ""
}

// sameResults compares two passes' key-sorted rows.
func sameResults(a, b []sweep.CellResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Cycles != b[i].Cycles || a[i].Issued != b[i].Issued {
			return false
		}
	}
	return true
}

// large is the large_runs workload: long simulations one at a time on the
// GTX480, each split across nproc intra-run workers. A request is the run
// of all of largeBenches.
type large struct {
	e    *env
	base config.Config
	cfg  config.Config
}

func setupLarge(_ context.Context, e *env) (instance, error) {
	base := config.GTX480()
	base.IntraRunWorkers = e.nproc
	base.Seed = simSeed(e.seed, 0)
	return &large{e: e, base: base, cfg: core.WarpedGates.Apply(base)}, nil
}

func (l *large) close() {}

func (l *large) run(ctx context.Context, seconds float64, tr *tracer) (phases, error) {
	ps := newPhases(tr)
	scale := l.e.size.largeScale
	err := rounds(ctx, seconds, tr, func(i int) error {
		p, rt := ps.pick(tr, i)
		r := core.NewRunner(l.base)
		r.Scale = scale
		if rt != nil {
			rt.hook(r)
		}
		ks := make([]keyed, 0, len(largeBenches))
		d, err := timed(rt, spanRound, hash{}, func() error {
			for _, b := range largeBenches {
				var rep *sim.Report
				_, err := timed(rt, spanCall, jobID(b, l.cfg, scale), func() (err error) {
					rep, err = r.RunCfgCtx(ctx, b, l.cfg)
					return err
				})
				if err != nil {
					return err
				}
				ks = append(ks, keyed{core.JobKey(b, l.cfg, scale), rep})
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.addRound(l.e.check, d, scale, ks)
		return nil
	})
	if err == nil && tr != nil {
		tr.runnerLayers(ps.t.layers, l.e.nproc)
	}
	return ps, err
}

// workDir makes the directory a run keeps its stores in.
func workDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, fmt.Sprintf("run-%d-", os.Getpid()))
}
