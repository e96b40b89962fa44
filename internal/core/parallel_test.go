package core

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// countingRunner returns a small-scale runner whose Progress hook counts
// uncached simulations (the hook is concurrency-safe, as the Runner contract
// now requires).
func countingRunner(sims *atomic.Int64) *Runner {
	r := NewRunner(config.Small())
	r.Scale = 0.2
	r.Progress = func(string, config.Config) { sims.Add(1) }
	return r
}

// TestRunnerSingleflight is the stampede regression test: 8 goroutines
// request the same job key concurrently and the simulation must run exactly
// once, with every caller sharing the one report.
func TestRunnerSingleflight(t *testing.T) {
	var sims atomic.Int64
	r := countingRunner(&sims)

	const callers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	reps := make([]interface{ String() string }, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rep, err := r.Run("nw", Baseline)
			reps[i], errs[i] = rep, err
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if reps[i] != reps[0] {
			t.Fatal("concurrent duplicate requests did not share one report")
		}
	}
	if n := sims.Load(); n != 1 {
		t.Fatalf("simulation ran %d times for one key, want exactly 1 (stampede)", n)
	}
	if r.CacheSize() != 1 {
		t.Fatalf("cache size = %d, want 1", r.CacheSize())
	}
}

// TestRunManyDeterministic runs the suite in parallel twice and serially
// once (a Parallelism = 1 runner), asserting identical reports in identical
// order, a cache holding exactly one entry per unique key, and exactly-once
// simulation.
func TestRunManyDeterministic(t *testing.T) {
	var simsP atomic.Int64
	par := countingRunner(&simsP)
	par.Parallelism = 8
	jobs := TechniqueJobs(par.Base, kernels.BenchmarkNames, Baseline)
	p1, err := par.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := par.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}

	var simsS atomic.Int64
	ser := countingRunner(&simsS)
	ser.Parallelism = 1
	s1, err := ser.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}

	want := len(kernels.BenchmarkNames)
	if len(p1) != want || len(s1) != want {
		t.Fatalf("lengths %d/%d, want %d", len(p1), len(s1), want)
	}
	for i, b := range kernels.BenchmarkNames {
		// Second parallel pass must be served from cache: same pointers.
		if p1[i] != p2[i] {
			t.Fatalf("%s: repeated parallel run not served from cache", b)
		}
		// Parallel and serial runners simulate independently, so compare
		// values: every field of every report must match exactly.
		if !reflect.DeepEqual(p1[i], s1[i]) {
			t.Fatalf("%s: parallel report differs from serial report:\n%v\nvs\n%v", b, p1[i], s1[i])
		}
	}
	if n := simsP.Load(); n != int64(want) {
		t.Fatalf("parallel runner simulated %d times, want exactly %d", n, want)
	}
	if par.CacheSize() != want {
		t.Fatalf("parallel cache size = %d, want %d unique keys", par.CacheSize(), want)
	}
	if ser.CacheSize() != want {
		t.Fatalf("serial cache size = %d, want %d", ser.CacheSize(), want)
	}
}

// TestRunManyCollapsesDuplicates feeds RunMany the same job many times over:
// one simulation, every slot filled with the shared report.
func TestRunManyCollapsesDuplicates(t *testing.T) {
	var sims atomic.Int64
	r := countingRunner(&sims)
	r.Parallelism = 8
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Bench: "nw", Cfg: Baseline.Apply(r.Base)}
	}
	reps, err := r.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if rep == nil || rep != reps[0] {
			t.Fatalf("slot %d: duplicate jobs not collapsed onto one report", i)
		}
	}
	if n := sims.Load(); n != 1 {
		t.Fatalf("simulated %d times for 16 duplicate jobs, want 1", n)
	}
}

// TestRunManyFirstErrorWins mixes a bad job into a large batch: RunMany must
// fail with that job's error and not return partial results.
func TestRunManyFirstErrorWins(t *testing.T) {
	r := testRunner()
	r.Parallelism = 4
	jobs := TechniqueJobs(r.Base, kernels.BenchmarkNames, Baseline)
	jobs = append(jobs, Job{Bench: "nosuch", Cfg: Baseline.Apply(r.Base)})
	reps, err := r.RunMany(jobs)
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if reps != nil {
		t.Fatal("failed RunMany returned partial results")
	}
}

// TestRunnerRejectsNonFiniteScale covers the cache-key poisoning bug: NaN never
// equals itself, so a NaN Scale would defeat the cache silently. The runner
// must reject it (and other unusable scales) loudly instead.
func TestRunnerRejectsNonFiniteScale(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.5} {
		r := NewRunner(config.Small())
		r.Scale = bad
		if _, err := r.Run("nw", Baseline); err == nil {
			t.Errorf("Scale=%v accepted, want error", bad)
		}
		if r.CacheSize() != 0 {
			t.Errorf("Scale=%v left %d cache entries", bad, r.CacheSize())
		}
	}
}

// TestRunManySerialFallback pins the Parallelism=1 path (used by -j 1 and by
// single-job batches) to plain serial execution.
func TestRunManySerialFallback(t *testing.T) {
	var sims atomic.Int64
	r := countingRunner(&sims)
	r.Parallelism = 1
	reps, err := r.RunMany(TechniqueJobs(r.Base, []string{"nw", "bfs"}, Baseline, ConvPG))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 4 || sims.Load() != 4 {
		t.Fatalf("serial RunMany: %d reports, %d sims, want 4/4", len(reps), sims.Load())
	}
}

// TestRunManySpeedup times the parallel path against a cold Parallelism = 1
// runner at a reduced scale. On a multicore machine the fan-out must be a
// clear win; the assertion is deliberately below the expected speedup (≈
// core count) to stay robust under loaded CI machines.
func TestRunManySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test in -short mode")
	}
	cores := runtime.GOMAXPROCS(0)
	if cores < 4 {
		t.Skipf("need >= 4 cores for a meaningful speedup bound, have %d", cores)
	}
	elapsed := func(parallelism int) time.Duration {
		r := NewRunner(config.Small())
		r.Scale = 0.5
		r.Parallelism = parallelism
		t0 := time.Now()
		if _, err := r.RunMany(TechniqueJobs(r.Base, kernels.BenchmarkNames, Baseline)); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	serialTime, parallelTime := elapsed(1), elapsed(0)
	speedup := float64(serialTime) / float64(parallelTime)
	t.Logf("serial %v, parallel %v on %d cores: %.2fx", serialTime, parallelTime, cores, speedup)
	if speedup < 2 {
		t.Errorf("RunMany speedup %.2fx on %d cores, want >= 2x", speedup, cores)
	}
}

// BenchmarkRunManySerial and BenchmarkRunManyParallel measure the fan-out win
// directly: each iteration simulates the full 18-benchmark suite on a fresh
// runner (cold cache).
func BenchmarkRunManySerial(b *testing.B) { benchmarkRunMany(b, 1) }

func BenchmarkRunManyParallel(b *testing.B) { benchmarkRunMany(b, 0) }

func benchmarkRunMany(b *testing.B, parallelism int) {
	for i := 0; i < b.N; i++ {
		r := NewRunner(config.Small())
		r.Scale = 0.2
		r.Parallelism = parallelism
		if _, err := r.RunMany(TechniqueJobs(r.Base, kernels.BenchmarkNames, Baseline)); err != nil {
			b.Fatal(err)
		}
	}
}
