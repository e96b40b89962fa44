package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
)

// slowRunner builds a runner whose single simulation takes several seconds —
// the canvas for cancellation tests. Scale multiplies kernel work, so hotspot
// at a large scale runs orders of magnitude longer than the cancel windows
// the tests use.
func slowRunner() *Runner {
	r := NewRunner(config.Small())
	r.Scale = 50
	return r
}

// assertPrompt fails the test when a cancellation path took longer than the
// generous bound — far below the uncanceled runtime, far above scheduler
// noise.
func assertPrompt(t *testing.T, what string, took time.Duration) {
	t.Helper()
	if took > 5*time.Second {
		t.Fatalf("%s took %v; cancellation did not take effect within a device step", what, took)
	}
}

func TestRunCtxPreCanceledReturnsImmediately(t *testing.T) {
	r := slowRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	rep, err := r.RunCtx(ctx, "hotspot", WarpedGates)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx(pre-canceled) = %v, %v; want nil, context.Canceled", rep, err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("pre-canceled run still took %v", took)
	}
	if r.CacheSize() != 0 {
		t.Fatal("canceled run left a cache entry")
	}
}

// TestRunCtxCancelMidRun: the simulation polls its context every device
// step, so a mid-run cancel lands promptly.
func TestRunCtxCancelMidRun(t *testing.T) {
	r := slowRunner()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	rep, err := r.RunCtx(ctx, "hotspot", WarpedGates)
	took := time.Since(t0)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, %v; want nil, context.Canceled", rep, err)
	}
	assertPrompt(t, "mid-run cancel", took)
	// The key is immediately retryable: nothing poisoned in the cache.
	if r.CacheSize() != 0 {
		t.Fatal("canceled run left a cache entry")
	}
}

// TestRunManyCtxCancelDrainsWorkers: canceling a batch aborts in-flight
// simulations at their next device step and RunManyCtx returns only after
// every worker exited, with the caller's cause as the error.
func TestRunManyCtxCancelDrainsWorkers(t *testing.T) {
	r := slowRunner()
	r.Parallelism = 4
	jobs := TechniqueJobs(r.Base, []string{"hotspot", "bfs", "kmeans", "srad"}, WarpedGates)
	cause := errors.New("operator gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel(cause)
	}()
	t0 := time.Now()
	reps, err := r.RunManyCtx(ctx, jobs)
	took := time.Since(t0)
	if reps != nil || !errors.Is(err, cause) {
		t.Fatalf("RunManyCtx = %v, %v; want nil slice and the cancel cause", reps, err)
	}
	assertPrompt(t, "RunManyCtx cancel", took)
	if n := r.CacheSize(); n != 0 {
		t.Fatalf("canceled batch left %d cache entries", n)
	}
}

// settleGoroutines waits, up to a short deadline, for the goroutine count to
// fall back to base, and fails with every live stack if it does not.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines live, started with %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunManyCancelLeaksNoGoroutines: cancellation leaks no goroutines —
// neither the dispatcher and job workers of a RunManyCtx canceled mid-batch,
// nor a canceled GPU.RunCtx.
func TestRunManyCancelLeaksNoGoroutines(t *testing.T) {
	t.Run("RunManyCtx", func(t *testing.T) {
		base := runtime.NumGoroutine()
		r := slowRunner()
		r.Parallelism = 2
		jobs := TechniqueJobs(r.Base, []string{"hotspot", "bfs", "kmeans", "srad"}, WarpedGates)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if reps, err := r.RunManyCtx(ctx, jobs); reps != nil || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("RunManyCtx = %v, %v; want nil slice and context.DeadlineExceeded", reps, err)
		}
		settleGoroutines(t, base)
	})
	t.Run("GPU.RunCtx", func(t *testing.T) {
		base := runtime.NumGoroutine()
		gpu, err := sim.NewGPU(config.Small(), kernels.MustBenchmark("hotspot").Scale(50))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if rep, err := gpu.RunCtx(ctx); rep != nil || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("RunCtx = %v, %v; want nil and context.DeadlineExceeded", rep, err)
		}
		settleGoroutines(t, base)
	})
}

// TestRunManyErrorAbortsSlowSiblings: a failing job does not just win the
// error race (parallel_test.go pins that) — it cancels sibling simulations
// that would otherwise run for seconds, so the batch returns promptly.
func TestRunManyErrorAbortsSlowSiblings(t *testing.T) {
	r := slowRunner()
	r.Parallelism = 2
	jobs := TechniqueJobs(r.Base, []string{"no-such-benchmark", "hotspot", "bfs"}, WarpedGates)
	t0 := time.Now()
	reps, err := r.RunManyCtx(context.Background(), jobs)
	took := time.Since(t0)
	if reps != nil || err == nil {
		t.Fatalf("RunManyCtx with a bad job = %v, %v; want nil, error", reps, err)
	}
	assertPrompt(t, "first-error abort", took)
}

// TestPanicBecomesPerJobError: a panic inside a simulation job (here from the
// Progress hook, which runs on the worker) surfaces as a *PanicError naming
// the job, with the goroutine stack captured — and never caches.
func TestPanicBecomesPerJobError(t *testing.T) {
	r := NewRunner(config.Small())
	r.Scale = 0.1
	r.Progress = func(bench string, cfg config.Config) {
		if bench == "bfs" {
			panic("probe exploded")
		}
	}
	_, err := r.Run("bfs", Baseline)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run over panicking hook = %v, want *PanicError", err)
	}
	if pe.Bench != "bfs" || pe.Value != "probe exploded" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError{Bench: %q, Value: %v, %d stack bytes} incomplete", pe.Bench, pe.Value, len(pe.Stack))
	}
	if r.CacheSize() != 0 {
		t.Fatal("panicked run left a cache entry")
	}
	// The poison is per-job: other benches still run, and the poisoned bench
	// recovers once the hook behaves.
	if _, err := r.Run("hotspot", Baseline); err != nil {
		t.Fatalf("sibling job failed after a panic elsewhere: %v", err)
	}
	r.Progress = nil
	if _, err := r.Run("bfs", Baseline); err != nil {
		t.Fatalf("retry after panic failed: %v", err)
	}
}

// TestPanicInsideParallelBatch: one poisoned job costs that job, not the
// worker pool — RunMany returns the panic as its error instead of crashing
// the process.
func TestPanicInsideParallelBatch(t *testing.T) {
	r := NewRunner(config.Small())
	r.Scale = 0.1
	r.Parallelism = 2
	r.Progress = func(bench string, cfg config.Config) {
		if bench == "kmeans" {
			panic("boom")
		}
	}
	jobs := TechniqueJobs(r.Base, []string{"hotspot", "kmeans", "bfs"}, Baseline)
	_, err := r.RunManyCtx(context.Background(), jobs)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Bench != "kmeans" {
		t.Fatalf("RunManyCtx over panicking job = %v, want *PanicError for kmeans", err)
	}
}

// TestLRUEviction: MaxCachedReports bounds the resident set with LRU order,
// and evicted keys simply re-simulate.
func TestLRUEviction(t *testing.T) {
	var sims atomic.Int64
	r := NewRunner(config.Small())
	r.Scale = 0.1
	r.MaxCachedReports = 2
	r.Progress = func(string, config.Config) { sims.Add(1) }

	for _, b := range []string{"hotspot", "bfs", "kmeans"} {
		if _, err := r.Run(b, Baseline); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.CacheSize(); got != 2 {
		t.Fatalf("CacheSize = %d with MaxCachedReports=2, want 2", got)
	}
	if got := sims.Load(); got != 3 {
		t.Fatalf("%d simulations for 3 distinct cells, want 3", got)
	}
	// kmeans and bfs are resident; bfs is a hit, hotspot was evicted.
	if _, err := r.Run("bfs", Baseline); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 3 {
		t.Fatalf("resident key re-simulated (%d sims)", got)
	}
	if _, err := r.Run("hotspot", Baseline); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 4 {
		t.Fatalf("evicted key served stale (%d sims, want 4)", got)
	}
	// The bfs touch above refreshed it: kmeans was the eviction victim.
	if _, err := r.Run("bfs", Baseline); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 4 {
		t.Fatalf("LRU order wrong: recently-touched bfs was evicted (%d sims)", got)
	}
}

// TestSingleflightSurvivesEviction pins the interaction the LRU must not
// break: concurrent requesters of one key share one simulation even while a
// tight MaxCachedReports churns the cache around them, and every waiter gets
// an identical report. Runs meaningfully under -race.
func TestSingleflightSurvivesEviction(t *testing.T) {
	var sims atomic.Int64
	r := NewRunner(config.Small())
	r.Scale = 0.1
	r.MaxCachedReports = 1
	r.Progress = func(string, config.Config) { sims.Add(1) }

	const waiters = 8
	var wg sync.WaitGroup
	fps := make([]string, waiters)
	errs := make([]error, waiters)
	churnBenches := []string{"bfs", "kmeans", "srad", "backprop"}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := r.Run("hotspot", WarpedGates)
			if err == nil {
				fps[i] = FingerprintReport(rep)
			}
			errs[i] = err
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := r.Run(churnBenches[i%len(churnBenches)], Baseline); err != nil {
				t.Errorf("churn job: %v", err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if fps[i] != fps[0] {
			t.Fatalf("waiter %d saw a different report:\n  %s\nvs\n  %s", i, fps[i], fps[0])
		}
	}
	if got := r.CacheSize(); got > 1 {
		t.Fatalf("CacheSize = %d with MaxCachedReports=1", got)
	}
}

// TestRunnerStoreTier: the durable store works as the L2 — a second, cold
// runner (empty in-memory cache) over the same store serves the report
// without re-simulating, byte-identical to the fresh run.
func TestRunnerStoreTier(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var sims1 atomic.Int64
	r1 := NewRunner(config.Small())
	r1.Scale = 0.1
	r1.Store = s
	r1.Progress = func(string, config.Config) { sims1.Add(1) }
	fresh, err := r1.Run("hotspot", WarpedGates)
	if err != nil {
		t.Fatal(err)
	}
	if sims1.Load() != 1 {
		t.Fatalf("first run simulated %d times", sims1.Load())
	}

	var sims2 atomic.Int64
	r2 := NewRunner(config.Small())
	r2.Scale = 0.1
	r2.Store = s
	r2.Progress = func(string, config.Config) { sims2.Add(1) }
	cached, err := r2.Run("hotspot", WarpedGates)
	if err != nil {
		t.Fatal(err)
	}
	if sims2.Load() != 0 {
		t.Fatal("cold runner re-simulated a stored report")
	}
	if f, c := FingerprintReport(fresh), FingerprintReport(cached); f != c {
		t.Fatalf("store round-trip drifted:\n fresh:  %s\n cached: %s", f, c)
	}
	h := s.Health()
	if h.Hits != 1 || h.Writes != 1 {
		t.Fatalf("store health after tiered runs: %s", h)
	}
}

// TestRunnerStoreDecodeFailureIsMiss: a checksum-valid store entry whose
// payload the report codec rejects (e.g. a future codec version) is treated
// as a miss and overwritten by the fresh simulation — never an error.
func TestRunnerStoreDecodeFailureIsMiss(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := WarpedGates.Apply(config.Small())
	key := JobKey("hotspot", cfg, 0.1)
	if err := s.Put(key, []byte(`{"version": 999}`)); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(config.Small())
	r.Scale = 0.1
	r.Store = s
	rep, err := r.Run("hotspot", WarpedGates)
	if err != nil || rep == nil {
		t.Fatalf("run over undecodable store entry = %v, %v", rep, err)
	}
	// The fresh result replaced the stale bytes: a cold reader now decodes it.
	data, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("store entry after overwrite: ok=%v err=%v", ok, err)
	}
	redecoded, err := sim.DecodeReport(data)
	if err != nil {
		t.Fatalf("overwritten entry still undecodable: %v", err)
	}
	if FingerprintReport(redecoded) != FingerprintReport(rep) {
		t.Fatal("overwritten store entry differs from the fresh report")
	}
}

// TestJobKeyAxes pins which configuration axes key the durable store: knobs
// that cannot change a result (the ignored IntraRunWorkers field,
// fast-forward) must NOT key, while every result-determining axis MUST. The
// full key string is pinned byte for byte: changing it moves every stored
// report.
func TestJobKeyAxes(t *testing.T) {
	base := config.Small()
	key := JobKey("hotspot", base, 0.1)
	const want = "wg-job v2 bench=hotspot sched=TwoLevel gate=None adaptive=false idle=5 bet=14 wake=3 sms=2 clusters=2 maxhold=0 auxbo=false seed=24301 scale=0.1 relaxed=0 sample=0/0"
	if key != want {
		t.Fatalf("job key moved:\n got %s\nwant %s", key, want)
	}

	invariant := base
	invariant.IntraRunWorkers = 7
	invariant.DisableFastForward = true
	if got := JobKey("hotspot", invariant, 0.1); got != key {
		t.Fatalf("engine-tuning axes leaked into the job key:\n %s\n %s", key, got)
	}

	sampled := base
	sampled.SampleDetailCycles = 1000
	sampled.SamplePeriod = 5000
	if JobKey("hotspot", sampled, 0.1) == key {
		t.Fatal("sampling axes do not key, but a sampled report is an estimate")
	}
	widened := sampled
	widened.SamplePeriod = 8000
	if JobKey("hotspot", widened, 0.1) == JobKey("hotspot", sampled, 0.1) {
		t.Fatal("SamplePeriod does not key independently of SampleDetailCycles")
	}
	if JobKey("bfs", base, 0.1) == key || JobKey("hotspot", base, 0.2) == key {
		t.Fatal("bench/scale do not key")
	}
}

// TestGoldenMatrixStoreRoundtrip is the acceptance check for the durable
// tier: the full 108-cell golden corpus, simulated fresh with a store
// attached, then re-rendered by a cold runner that may only read the store —
// the two corpora and the committed golden file must be byte-identical, and
// the store must have served every cell.
func TestGoldenMatrixStoreRoundtrip(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warm := goldenRunner()
	warm.Store = s
	fresh, err := goldenCorpus(warm)
	if err != nil {
		t.Fatal(err)
	}

	cold := goldenRunner()
	cold.Store = s
	cold.Progress = func(bench string, cfg config.Config) {
		t.Errorf("cold runner re-simulated %s under %s/%s instead of reading the store",
			bench, cfg.Scheduler, cfg.Gating)
	}
	before := s.Health()
	replayed, err := goldenCorpus(cold)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != replayed {
		t.Fatal("store-served corpus is not byte-identical to the fresh corpus")
	}
	if served := s.Health().Hits - before.Hits; served != uint64(before.Writes) {
		t.Fatalf("store served %d cells, corpus committed %d", served, before.Writes)
	}
}
