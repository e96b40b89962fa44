package sweep

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
)

// Engine runs expanded sweeps against the memoizing runner stack. One engine
// owns one runner per scale (Runner.Scale is a runner-level axis), all
// sharing the same durable store, so every cell of every sweep deduplicates
// through the same two cache tiers the figure drivers and the HTTP service
// use.
type Engine struct {
	// Base is the machine configuration cells are projected onto.
	Base config.Config
	// Store, when non-nil, is the shared durable report tier.
	Store *store.Store
	// Parallelism bounds the cell-level worker pool (0 = GOMAXPROCS). The
	// per-scale runners inherit it, and the engine's own pool is what
	// schedules cells, so the two never multiply.
	Parallelism int
	// MaxWallTime is the per-cell watchdog, passed to the runners.
	MaxWallTime time.Duration
	// Progress, when non-nil, is called after each cell completes (from
	// worker goroutines — must be safe for concurrent use).
	Progress func(done, total int, res CellResult)

	mu      sync.Mutex
	runners map[float64]*core.Runner
	sims    atomic.Uint64
}

// CellResult is one cell's outcome: its resolved axes, canonical key and the
// headline counters, or the per-cell error. Sweeps tolerate cell failures —
// one bad cell costs one row, not the sweep.
type CellResult struct {
	Cell   Cell   `json:"cell"`
	Key    string `json:"key"`
	Cycles int64  `json:"cycles,omitempty"`
	Issued uint64 `json:"issued,omitempty"`
	// Sampled mirrors the report's sampling block for sampled cells.
	Sampled        bool    `json:"sampled,omitempty"`
	SampleErrorEst float64 `json:"sample_error_est,omitempty"`
	Err            string  `json:"error,omitempty"`
}

// TechAgg aggregates one technique's completed cells.
type TechAgg struct {
	Cells      int     `json:"cells"`
	MeanCycles float64 `json:"mean_cycles"`
}

// Report is the per-sweep summary: dedup accounting, aggregates over the
// completed cells, and the per-cell rows in deterministic (sorted-key)
// order.
type Report struct {
	Cells     int `json:"cells"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Simulated counts fresh simulations this run performed; StoreHits counts
	// cells served by the durable store. Cells satisfied by the in-memory
	// tier (duplicate axes within one process lifetime) appear in neither.
	Simulated int `json:"simulated"`
	StoreHits int `json:"store_hits"`

	WallTime time.Duration `json:"wall_time_ns"`

	// MaxSampleErrorEst / MeanSampleErrorEst summarize the per-cell error
	// estimates of sampled cells (zero when the sweep ran detailed).
	MaxSampleErrorEst  float64 `json:"max_sample_error_est,omitempty"`
	MeanSampleErrorEst float64 `json:"mean_sample_error_est,omitempty"`

	ByTechnique map[string]TechAgg `json:"by_technique"`
	Results     []CellResult       `json:"results"`
}

// runner returns the engine's runner for one scale, creating it on first
// use. Runner Progress counts fresh simulations for the dedup accounting.
func (e *Engine) runner(scale float64) *core.Runner {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.runners == nil {
		e.runners = make(map[float64]*core.Runner)
	}
	if r, ok := e.runners[scale]; ok {
		return r
	}
	r := core.NewRunner(e.Base)
	r.Scale = scale
	r.Store = e.Store
	r.Parallelism = e.Parallelism
	r.MaxWallTime = e.MaxWallTime
	r.Progress = func(string, config.Config) { e.sims.Add(1) }
	e.runners[scale] = r
	return r
}

// Simulations returns how many fresh (uncached, non-store) simulations the
// engine has performed across its lifetime.
func (e *Engine) Simulations() uint64 { return e.sims.Load() }

// Run expands spec, optionally takes shard i of n over the sorted job-key
// space (n <= 1 runs everything), executes every cell on a bounded worker
// pool and returns the sweep report. Cell failures are recorded per row;
// Run itself fails only on an invalid spec/shard or a canceled context.
func (e *Engine) Run(ctx context.Context, spec Spec, shardI, shardN int) (*Report, error) {
	cells, err := Expand(spec, e.Base)
	if err != nil {
		return nil, err
	}
	if shardN == 0 && shardI == 0 {
		shardN = 1 // zero value: whole sweep
	}
	if cells, err = Shard(cells, e.Base, shardI, shardN); err != nil {
		return nil, err
	}
	return e.RunCells(ctx, cells)
}

// RunCells executes an explicit cell list (already expanded, possibly
// sharded) and aggregates the results.
func (e *Engine) RunCells(ctx context.Context, cells []Cell) (*Report, error) {
	start := time.Now()
	sims0 := e.sims.Load()
	var hits0 store.Health
	if e.Store != nil {
		hits0 = e.Store.Health()
	}
	results := make([]CellResult, len(cells))
	var done atomic.Int64
	// One bad cell costs one row, not the sweep: run never fails, so only
	// cancellation ends the batch early. Report rows are key-sorted, so the
	// dispatch order cannot change output bytes.
	err := core.Dispatch(ctx, e.Parallelism, len(cells),
		func(i int) (string, config.Config, float64) {
			return cells[i].Bench, cells[i].Config(e.Base), cells[i].Scale
		},
		func(ctx context.Context, i int) error {
			results[i] = e.runCell(ctx, cells[i])
			if e.Progress != nil {
				e.Progress(int(done.Add(1)), len(cells), results[i])
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Cells:       len(cells),
		WallTime:    time.Since(start),
		Simulated:   int(e.sims.Load() - sims0),
		ByTechnique: make(map[string]TechAgg),
		Results:     results,
	}
	if e.Store != nil {
		rep.StoreHits = int(e.Store.Health().Hits - hits0.Hits)
	}
	sort.Slice(rep.Results, func(a, b int) bool { return rep.Results[a].Key < rep.Results[b].Key })
	techCycles := make(map[string]float64)
	var estSum float64
	var estN int
	for _, r := range rep.Results {
		if r.Err != "" {
			rep.Failed++
			continue
		}
		rep.Completed++
		agg := rep.ByTechnique[r.Cell.TechName]
		agg.Cells++
		rep.ByTechnique[r.Cell.TechName] = agg
		techCycles[r.Cell.TechName] += float64(r.Cycles)
		if r.Sampled {
			estSum += r.SampleErrorEst
			estN++
			if r.SampleErrorEst > rep.MaxSampleErrorEst {
				rep.MaxSampleErrorEst = r.SampleErrorEst
			}
		}
	}
	for name, agg := range rep.ByTechnique {
		agg.MeanCycles = techCycles[name] / float64(agg.Cells)
		rep.ByTechnique[name] = agg
	}
	if estN > 0 {
		rep.MeanSampleErrorEst = estSum / float64(estN)
	}
	return rep, nil
}

// runCell executes one cell through its scale's runner.
func (e *Engine) runCell(ctx context.Context, c Cell) CellResult {
	res := CellResult{Cell: c, Key: c.Key(e.Base)}
	cfg := c.Config(e.Base)
	rep, err := e.runner(c.Scale).RunCfgCtx(ctx, c.Bench, cfg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Cycles = rep.Cycles
	res.Issued = rep.IssuedTotal
	res.Sampled = rep.Sampled
	res.SampleErrorEst = rep.SampleErrorEst
	return res
}

// CachedReport exposes the runners' in-memory tier so callers holding a
// sweep row's key can fetch the full report without re-running anything.
func (e *Engine) CachedReport(key string) (*sim.Report, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.runners {
		if rep, ok := r.CachedReport(key); ok {
			return rep, true
		}
	}
	return nil, false
}

// Summary renders the report's headline counters as a short human-readable
// block (the CLI prints it; the JSON report carries the full rows).
func (r *Report) Summary() string {
	s := fmt.Sprintf("cells=%d completed=%d failed=%d simulated=%d store_hits=%d wall=%v\n",
		r.Cells, r.Completed, r.Failed, r.Simulated, r.StoreHits, r.WallTime.Round(time.Millisecond))
	if r.MaxSampleErrorEst > 0 {
		s += fmt.Sprintf("sampled: max_error_est=%.2f%% mean_error_est=%.2f%%\n",
			r.MaxSampleErrorEst*100, r.MeanSampleErrorEst*100)
	}
	names := make([]string, 0, len(r.ByTechnique))
	for name := range r.ByTechnique {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		agg := r.ByTechnique[name]
		s += fmt.Sprintf("  %-14s cells=%-5d mean_cycles=%.0f\n", name, agg.Cells, agg.MeanCycles)
	}
	return s
}
