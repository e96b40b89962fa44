package core

import (
	"container/list"
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
)

// Runner executes benchmark simulations with memoization: many figures reuse
// the same (benchmark, technique) runs, and the cache guarantees each unique
// configuration is simulated exactly once — including under concurrency,
// where duplicate in-flight requests block on the single real run
// (singleflight) and share its report. Runner is safe for concurrent use.
//
// The cache is tiered. The in-memory map is the L1; when Store is set, a
// content-addressed on-disk report store is the durable L2: an L1 miss first
// consults the store (checksummed, crash-safe — see internal/store) and only
// simulates on a store miss, committing the fresh report back. Singleflight
// spans both tiers — concurrent requesters of one key share one store lookup
// or one simulation, never several.
type Runner struct {
	// Base is the machine configuration figures are evaluated on; technique
	// and sweep parameters are applied on top of copies of it.
	Base config.Config
	// Scale multiplies each kernel's work (iterations and CTA count).
	// 1.0 is the full evaluation; tests use small scales. RunCfg rejects
	// any value kernels.CheckScale rejects.
	Scale float64
	// Parallelism bounds the worker pool of RunMany.
	// Zero (the default) means runtime.GOMAXPROCS(0). It does not limit
	// plain Run/RunCfg calls, which always execute on the caller.
	Parallelism int
	// Store, when non-nil, is the durable report tier. Reports served from it
	// are byte-identical to fresh simulations (the golden corpus pins this),
	// but arrive without a simulation: Progress and Instrument do not fire
	// for store hits — they observe simulations, not reports. Store write
	// failures never fail a run (the report is still correct); they are
	// recorded in the store's health counters.
	Store *store.Store
	// MaxCachedReports bounds how many completed reports the in-memory tier
	// retains (least-recently-used eviction). Zero, the default, is
	// unlimited — the right choice for batch figure runs, which revisit
	// everything. Long-lived store-backed processes set a bound so the L1
	// cannot grow without limit; evicted keys are re-served from the store.
	// In-flight singleflight entries are never evicted.
	MaxCachedReports int
	// Progress, when non-nil, is invoked before each uncached simulation.
	// Under RunMany it is called concurrently from worker goroutines, so
	// the callback must be safe for concurrent use. Set it before the first
	// run; mutating it while runs are in flight is a race.
	Progress func(benchmark string, cfg config.Config)
	// Instrument, when non-nil, observes each uncached simulation: it is
	// called with the benchmark, the exact configuration, the scaled kernel
	// and the freshly built GPU before the run starts, and may install probes
	// (SetCycleProbe/SetIssueTracer). The returned callback, if non-nil,
	// receives the final report; a non-nil error fails the run, which is then
	// not cached. Like Progress it runs concurrently under RunMany, so the
	// hook must be safe for concurrent use — attach per-run state (e.g. one
	// check.Checker per GPU), never share probes.
	Instrument Instrumenter

	mu sync.Mutex
	// cache holds one entry per JobKey, in flight or completed; the same
	// string addresses the durable store and the HTTP service.
	cache map[string]*cacheEntry
	// lru orders completed cache entries, most recent at the front; in-flight
	// entries join only once their report lands, so eviction can never drop
	// an entry a waiter is blocked on before its done channel closes.
	lru list.List
}

// PanicError is a panic captured inside one simulation job, converted into a
// per-job error so a sweep loses one cell instead of the whole process. The
// stack is the panicking goroutine's, captured at recovery point.
type PanicError struct {
	Bench string
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: panic simulating %s: %v", e.Bench, e.Value)
}

// cacheEntry is one singleflight slot: the first requester of a key becomes
// the leader and resolves it (store lookup, then simulation); everyone else
// blocks on done and shares the result. rep and err are written exactly once,
// before done is closed. elem is the entry's LRU slot, non-nil only once the
// entry completed successfully and became resident.
type cacheEntry struct {
	done chan struct{}
	rep  *sim.Report
	err  error
	key  string
	elem *list.Element
}

// JobKey returns the canonical key of one job at the given scale: the
// deterministic single-line string the in-memory cache, the durable store and
// the HTTP service all address a simulation by. It holds exactly the axes that
// can change a result; runs that differ only in an engine knob (fast-forward,
// the ignored worker count) share one key. The sampling axes are present,
// because a sampled report is an estimate, never interchangeable with the
// detailed run it approximates. The format is versioned: changing which
// fields key a simulation (or how they are rendered) must bump it, or stale
// store entries would be served for jobs they no longer describe. The float
// scale uses the shortest exact round-trip form, like the fingerprints.
func JobKey(bench string, cfg config.Config, scale float64) string {
	// relaxed=0 stays: dropping it would move every stored report and digest.
	return fmt.Sprintf(
		"wg-job v2 bench=%s sched=%s gate=%s adaptive=%t idle=%d bet=%d wake=%d sms=%d clusters=%d maxhold=%d auxbo=%t seed=%d scale=%s relaxed=0 sample=%d/%d",
		bench, cfg.Scheduler, cfg.Gating, cfg.AdaptiveIdleDetect, cfg.IdleDetect, cfg.BreakEven,
		cfg.WakeupDelay, cfg.NumSMs, cfg.NumSPClusters, cfg.GATESMaxHold, cfg.BlackoutAux, cfg.Seed,
		fmtFloat(scale), cfg.SampleDetailCycles, cfg.SamplePeriod)
}

// NewRunner builds a runner over the given base configuration at full scale.
// The initial Scale of 1.0 is always valid; callers that override Scale get
// it validated on every RunCfg (non-finite values cannot key the cache or
// scale a kernel).
func NewRunner(base config.Config) *Runner {
	return &Runner{
		Base:  base,
		Scale: 1.0,
		cache: make(map[string]*cacheEntry),
	}
}

// ctxErr converts a canceled context into the error its caller should see:
// the cause (RunMany's first job error, or whatever the caller planted, such
// as the service's per-job deadline cause) when one was set, the plain
// ctx.Err otherwise. The runner arms no deadline of its own.
func ctxErr(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return ctx.Err()
}

// Run simulates benchmark bench under technique t on the base configuration.
func (r *Runner) Run(bench string, t Technique) (*sim.Report, error) {
	return r.RunCtx(context.Background(), bench, t)
}

// RunCtx is Run under a context; see RunCfgCtx for the cancellation contract.
func (r *Runner) RunCtx(ctx context.Context, bench string, t Technique) (*sim.Report, error) {
	return r.RunCfgCtx(ctx, bench, t.Apply(r.Base))
}

// RunCfg simulates bench under an explicit configuration (for sweeps); it is
// RunCfgCtx under a background context.
func (r *Runner) RunCfg(bench string, cfg config.Config) (*sim.Report, error) {
	return r.RunCfgCtx(context.Background(), bench, cfg)
}

// RunCfgCtx simulates bench under an explicit configuration. For a given key
// the work runs exactly once: concurrent duplicate requests block on the
// first one (the leader) and share its report. Failed runs are not cached,
// so a later call may retry.
//
// ctx cancels the simulation at its next device step. Waiters sharing a
// leader share the leader's fate: if the leader's context dies, every waiter
// gets the cancellation error, and the key is immediately retryable.
// Cancellation errors, deadline expiry included, are never cached.
func (r *Runner) RunCfgCtx(ctx context.Context, bench string, cfg config.Config) (*sim.Report, error) {
	if err := kernels.CheckScale(r.Scale); err != nil {
		return nil, fmt.Errorf("core: runner Scale: %w", err)
	}
	if ctx.Err() != nil {
		return nil, ctxErr(ctx)
	}
	key := JobKey(bench, cfg, r.Scale)
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		if e.elem != nil {
			r.lru.MoveToFront(e.elem)
		}
		r.mu.Unlock()
		<-e.done
		return e.rep, e.err
	}
	e := &cacheEntry{done: make(chan struct{}), key: key}
	r.cache[key] = e
	r.mu.Unlock()

	e.rep, e.err = r.resolve(ctx, bench, cfg, key)
	r.mu.Lock()
	if e.err != nil {
		delete(r.cache, key)
	} else {
		e.elem = r.lru.PushFront(e)
		r.evictLocked()
	}
	r.mu.Unlock()
	close(e.done)
	return e.rep, e.err
}

// CachedReport returns the completed report resident in the in-memory tier
// under the given canonical job key (see JobKey), or false when the key is
// in flight, evicted or unknown. It never blocks and never consults the
// durable store — it is the L1 half of the service layer's read-through
// report path; the caller falls back to the store on a miss.
func (r *Runner) CachedReport(key string) (*sim.Report, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.cache[key]
	if !ok || e.elem == nil {
		return nil, false
	}
	r.lru.MoveToFront(e.elem)
	return e.rep, true
}

// evictLocked trims the completed-entry LRU to MaxCachedReports, dropping the
// least recently used residents. Callers hold r.mu. An evicted entry's done
// channel is already closed (only completed entries are in the list), so
// waiters holding its pointer are unaffected; the key simply resolves fresh —
// from the store, if one is attached — on its next request.
func (r *Runner) evictLocked() {
	if r.MaxCachedReports <= 0 {
		return
	}
	for r.lru.Len() > r.MaxCachedReports {
		old := r.lru.Remove(r.lru.Back()).(*cacheEntry)
		delete(r.cache, old.key)
	}
}

// resolve is the singleflight leader path: consult the durable store, then
// simulate on a miss and commit the result back.
func (r *Runner) resolve(ctx context.Context, bench string, cfg config.Config, key string) (*sim.Report, error) {
	if r.Store != nil {
		if data, ok, _ := r.Store.Get(key); ok {
			if rep, err := sim.DecodeReport(data); err == nil {
				return rep, nil
			}
			// Checksum-valid but undecodable: a different codec version.
			// Treat as a miss; the fresh simulation's commit overwrites it.
		}
	}
	rep, err := r.simulate(ctx, bench, cfg)
	if err != nil {
		return nil, err
	}
	if r.Store != nil {
		if data, err := sim.EncodeReport(rep); err == nil {
			// A failed Put is recorded in the store's health counters; the
			// report itself is valid regardless, so the run still succeeds.
			_ = r.Store.Put(key, data)
		}
	}
	return rep, nil
}

// simulate performs one uncached simulation. It converts a panic anywhere in
// the simulation (or in the Progress/Instrument hooks) into a *PanicError
// with the captured stack, so one poisoned job cannot kill a whole sweep's
// worker pool.
func (r *Runner) simulate(ctx context.Context, bench string, cfg config.Config) (rep *sim.Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			rep, err = nil, &PanicError{Bench: bench, Value: v, Stack: debug.Stack()}
		}
	}()
	k, err := kernels.Benchmark(bench)
	if err != nil {
		return nil, err
	}
	if r.Scale != 1.0 {
		k = k.Scale(r.Scale)
	}
	if r.Progress != nil {
		r.Progress(bench, cfg)
	}
	gpu, err := sim.NewGPU(cfg, k)
	if err != nil {
		return nil, fmt.Errorf("core: building GPU for %s: %w", bench, err)
	}
	var finish func(*sim.Report) error
	if r.Instrument != nil {
		finish = r.Instrument(bench, cfg, k, gpu)
	}
	rep, err = gpu.RunCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: %s under %s/%s: %w", bench, cfg.Scheduler, cfg.Gating, err)
	}
	if finish != nil {
		if err := finish(rep); err != nil {
			return nil, fmt.Errorf("core: instrumented run of %s: %w", bench, err)
		}
	}
	return rep, nil
}

// Instrumenter is Runner.Instrument's hook type: called once per uncached
// simulation with the GPU before it runs, it returns a completion callback
// (may be nil) that receives the final report and may fail the run. The
// invariant checker's check.Instrument produces this type.
type Instrumenter func(bench string, cfg config.Config, k *kernels.Kernel, g *sim.GPU) func(*sim.Report) error

// Performance returns the paper's Figure 10 metric for one benchmark and
// technique: baseline cycles divided by technique cycles (1.0 = no slowdown,
// smaller = slower).
func (r *Runner) Performance(bench string, t Technique) (float64, error) {
	base, err := r.Run(bench, Baseline)
	if err != nil {
		return 0, err
	}
	rep, err := r.Run(bench, t)
	if err != nil {
		return 0, err
	}
	if rep.Cycles == 0 {
		return 0, fmt.Errorf("core: %s under %s ran zero cycles", bench, t)
	}
	return float64(base.Cycles) / float64(rep.Cycles), nil
}

// CacheSize returns the number of memoized simulations, counting in-flight
// singleflight entries (for tests).
func (r *Runner) CacheSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}
