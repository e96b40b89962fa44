package core

import (
	"sync"
	"testing"

	"warpedgates/internal/config"
)

// testRunner returns a fast small-machine runner shared by core tests.
func testRunner() *Runner {
	r := NewRunner(config.Small())
	r.Scale = 0.2
	return r
}

func TestRunnerMemoizes(t *testing.T) {
	r := testRunner()
	a, err := r.Run("nw", Baseline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("nw", Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical run not served from cache")
	}
	if r.CacheSize() != 1 {
		t.Fatalf("cache size = %d, want 1", r.CacheSize())
	}
	if _, err := r.Run("nw", ConvPG); err != nil {
		t.Fatal(err)
	}
	if r.CacheSize() != 2 {
		t.Fatalf("cache size = %d, want 2", r.CacheSize())
	}
}

func TestRunnerDistinguishesSweepParameters(t *testing.T) {
	r := testRunner()
	cfgA := ConvPG.Apply(r.Base)
	cfgB := cfgA
	cfgB.IdleDetect = 9
	a, err := r.RunCfg("nw", cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunCfg("nw", cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different idle-detect values hit the same cache entry")
	}
}

func TestRunnerUnknownBenchmark(t *testing.T) {
	r := testRunner()
	if _, err := r.Run("nosuch", Baseline); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunnerProgressCallback(t *testing.T) {
	r := testRunner()
	var calls int
	r.Progress = func(b string, c config.Config) { calls++ }
	if _, err := r.Run("nw", Baseline); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run("nw", Baseline); err != nil { // cached: no callback
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("progress callbacks = %d, want 1", calls)
	}
}

func TestRunnerPerformanceMetric(t *testing.T) {
	r := testRunner()
	p, err := r.Performance("nw", ConvPG)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p > 1.2 {
		t.Fatalf("performance = %v, implausible", p)
	}
	// Baseline against itself is exactly 1.
	p, err = r.Performance("nw", Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("baseline self performance = %v", p)
	}
}

func TestRunnerConcurrentAccess(t *testing.T) {
	r := testRunner()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tech := GatedTechniques()[i%5]
			if _, err := r.Run("nw", tech); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
