package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// slowGPU builds a device whose run takes seconds — enough headroom that a
// cancellation landing within one device step is unmistakable.
func slowGPU(t *testing.T) *GPU {
	t.Helper()
	cfg := config.Small()
	gpu, err := NewGPU(cfg, kernels.MustBenchmark("hotspot").Scale(50))
	if err != nil {
		t.Fatal(err)
	}
	return gpu
}

// TestRunCtxBackgroundMatchesRun: the context plumbing is free — a background
// RunCtx produces the identical result to plain Run.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	cfg := config.Small()
	k := kernels.MustBenchmark("bfs").Scale(0.1)
	g1, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	r1 := g1.Run()
	r2, err := g2.RunCtx(context.Background())
	if err != nil {
		t.Fatalf("RunCtx(Background): %v", err)
	}
	if r1.Cycles != r2.Cycles || r1.IssuedTotal != r2.IssuedTotal {
		t.Fatalf("RunCtx drifted from Run: cycles %d vs %d, issued %d vs %d",
			r1.Cycles, r2.Cycles, r1.IssuedTotal, r2.IssuedTotal)
	}
}

// TestRunCtxPreCanceled: a context dead on arrival never steps the device.
func TestRunCtxPreCanceled(t *testing.T) {
	gpu := slowGPU(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := gpu.RunCtx(ctx)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx(dead ctx) = %v, %v; want nil, context.Canceled", rep, err)
	}
}

// TestRunCtxCancelStopsRun: cancel lands within one device step, and the
// error names the simulation and cycle.
func TestRunCtxCancelStopsRun(t *testing.T) {
	gpu := slowGPU(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	rep, err := gpu.RunCtx(ctx)
	took := time.Since(t0)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled RunCtx = %v, %v", rep, err)
	}
	if took > 5*time.Second {
		t.Fatalf("cancel took %v to land", took)
	}
	if !strings.Contains(err.Error(), "canceled at cycle") {
		t.Fatalf("cancellation error lacks cycle context: %v", err)
	}
}

// TestRunCtxDeadlineCause: the error surfaces context.Cause, so a watchdog's
// typed cause (not just DeadlineExceeded) survives the trip through the
// engine.
func TestRunCtxDeadlineCause(t *testing.T) {
	gpu := slowGPU(t)
	cause := errors.New("watchdog fired")
	ctx, cancel := context.WithTimeoutCause(context.Background(), 20*time.Millisecond, cause)
	defer cancel()
	rep, err := gpu.RunCtx(ctx)
	if rep != nil || !errors.Is(err, cause) {
		t.Fatalf("RunCtx under timeout-with-cause = %v, %v; want the typed cause", rep, err)
	}
}
