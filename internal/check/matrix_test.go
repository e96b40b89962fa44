package check_test

// Black-box harness tests: the determinism contract (reports do not depend
// on the job-level worker count) on the plain runner, under the invariant
// checker and through the sweep engine, plus the metamorphic properties (seed
// determinism, scale monotonicity, gating neutrality) the simulator must
// satisfy. Everything here also runs under `go test -race` via `make verify`
// / the CI verify job.

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"warpedgates/internal/check"
	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
	"warpedgates/internal/sweep"
)

// matrixScale keeps the 18×6 matrix fast enough for -race while still
// draining tens of thousands of cycles per run.
const matrixScale = 0.2

// checkedRunner builds a small-machine runner with the invariant checker
// attached to every uncached simulation.
func checkedRunner(cfg config.Config, scale float64) *core.Runner {
	r := core.NewRunner(cfg)
	r.Scale = scale
	r.Instrument = check.Instrument(nil)
	return r
}

// TestWorkerCountDeterminism is the job schedule's determinism contract: a
// batch's reports are byte-identical at any job-level worker count. A row is
// one path at one worker count, compared position by position with that
// path's Parallelism = 1 reference, computed once. The two RunMany paths
// share one unchecked reference, so the checked rows also prove that
// attaching the checker moves no byte. A row with more than one worker must
// also have run jobs concurrently (assertOverlap).
func TestWorkerCountDeterminism(t *testing.T) {
	jobs := core.TechniqueJobs(config.Small(), kernels.BenchmarkNames, core.AllTechniques()...)
	serial := core.NewRunner(config.Small())
	serial.Scale = matrixScale
	serial.Parallelism = 1
	ref, err := serial.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var sweepRef *sweep.Report // run by the first sweep row, so -short never pays for it

	tests := []struct {
		name        string
		checked     bool // RunMany with check.Instrument attached
		sweep       bool // sweep.Engine.Run over the 864-cell grid instead of RunMany
		workers     int  // Parallelism; 0 means GOMAXPROCS
		long        bool // skipped with -short
		description string
	}{
		{
			name:        "runmany-2-workers",
			workers:     2,
			description: "the smallest pool: LPT admission order instead of index order",
		},
		{
			name:        "runmany-3-workers",
			workers:     3,
			long:        true,
			description: "an odd worker count",
		},
		{
			name:        "runmany-4-workers",
			workers:     4,
			description: "more workers than the 2-core CI host has cores",
		},
		{
			name:        "runmany-8-workers",
			workers:     8,
			description: "four workers per core on the 2-core CI host",
		},
		{
			name:        "checked-gomaxprocs-workers",
			checked:     true,
			description: "the default pool under the checker: 108 checked runs, no violation",
		},
		{
			name:        "checked-4-workers",
			checked:     true,
			workers:     4,
			description: "concurrent checked jobs, the data-race gate under -race",
		},
		{
			name:        "checked-8-workers",
			checked:     true,
			workers:     8,
			description: "concurrent checked jobs on more workers than cores",
		},
		{
			name:        "sweep-4-workers",
			sweep:       true,
			workers:     4,
			long:        true,
			description: "864 cells through the sweep engine's own Dispatch call and key-sorted rows",
		},
		{
			name:        "sweep-8-workers",
			sweep:       true,
			workers:     8,
			long:        true,
			description: "the sweep engine on more workers than cores",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.long && testing.Short() {
				t.Skip("another full matrix or 864-cell grid; skipped with -short")
			}
			defer func() {
				if t.Failed() {
					t.Logf("row %s: %s", tt.name, tt.description)
				}
			}()
			var fl inFlight
			if tt.sweep {
				if sweepRef == nil {
					sweepRef = runSweep(t, 1, nil)
				}
				got := runSweep(t, tt.workers, &fl)
				for i, want := range sweepRef.Results {
					if got.Results[i] != want {
						t.Fatalf("row %d diverged from the serial sweep:\n  serial: %+v\n  got:    %+v",
							i, want, got.Results[i])
					}
				}
			} else {
				runMatrix(t, jobs, ref, tt.workers, tt.checked, &fl)
			}
			assertOverlap(t, tt.workers, &fl)
		})
	}
}

// runMatrix runs jobs on a fresh runner with the given worker count and
// compares each report's fingerprint with ref's at the same position (the
// cache itself is pinned by core's TestRunManyDeterministic). Checked, it
// requires every job to have run under the checker; a violation fails its
// run, so RunMany fails.
func runMatrix(t *testing.T, jobs []core.Job, ref []*sim.Report, workers int, checked bool, fl *inFlight) {
	t.Helper()
	var sum check.Summary
	var hook core.Instrumenter
	if checked {
		hook = check.Instrument(&sum)
	}
	r := core.NewRunner(config.Small())
	r.Scale = matrixScale
	r.Parallelism = workers
	r.Instrument = fl.instrument(hook)
	got, err := r.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if f, g := core.FingerprintReport(ref[i]), core.FingerprintReport(got[i]); f != g {
			t.Errorf("%s/%s-%s diverged from the serial reference:\n  serial: %s\n  got:    %s",
				j.Bench, j.Cfg.Scheduler, j.Cfg.Gating, f, g)
		}
	}
	if checked {
		runs, checks := sum.Snapshot()
		if runs != len(jobs) {
			t.Errorf("checked %d simulations, want %d", runs, len(jobs))
		}
		if checks == 0 {
			t.Error("checker performed zero invariant evaluations")
		}
		t.Logf("verified %d simulations, %d invariant evaluations", runs, checks)
	}
}

// runSweep runs the sweep package's 864-cell end-to-end grid (18 benches × 6
// techniques × 2 scales × 2 seeds × 2 idle-detect points, each cell capped at
// 2500 cycles) on a cold engine with no store, so every cell simulates. fl,
// when non-nil, counts cells in flight.
func runSweep(t *testing.T, workers int, fl *inFlight) *sweep.Report {
	t.Helper()
	base := config.Small()
	base.MaxCycles = 2500
	e := &sweep.Engine{Base: base, Parallelism: workers}
	if fl != nil {
		e.Progress = fl.progress
	}
	rep, err := e.Run(context.Background(), sweep.Spec{
		Scales:      []float64{0.02, 0.03},
		Seeds:       []uint64{1, 2},
		IdleDetects: []int{5, 9},
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 864 || rep.Failed > 0 {
		t.Fatalf("sweep: %d cells, %d failed; want 864 and none", rep.Cells, rep.Failed)
	}
	return rep
}

// inFlight counts the jobs running at once and keeps the peak.
type inFlight struct {
	now, peak atomic.Int64
	waited    atomic.Bool
}

func (f *inFlight) enter() {
	n := f.now.Add(1)
	for p := f.peak.Load(); n > p && !f.peak.CompareAndSwap(p, n); p = f.peak.Load() {
	}
}

func (f *inFlight) exit() { f.now.Add(-1) }

// instrument wraps hook (nil for none) so that a simulation counts as in
// flight from its GPU's construction to its final report.
func (f *inFlight) instrument(hook core.Instrumenter) core.Instrumenter {
	return func(bench string, cfg config.Config, k *kernels.Kernel, g *sim.GPU) func(*sim.Report) error {
		f.enter()
		var finish func(*sim.Report) error
		if hook != nil {
			finish = hook(bench, cfg, k, g)
		}
		return func(rep *sim.Report) error {
			f.exit()
			if finish == nil {
				return nil
			}
			return finish(rep)
		}
	}
}

// progress is a sweep.Engine.Progress hook. The engine exposes no hook per
// simulation, only this callback per finished cell, which returns at once;
// so its first call waits up to a second for another worker to finish a
// cell. Two calls at once prove that cells ran on more than one worker.
func (f *inFlight) progress(int, int, sweep.CellResult) {
	f.enter()
	defer f.exit()
	if f.waited.CompareAndSwap(false, true) {
		for end := time.Now().Add(time.Second); f.peak.Load() < 2 && time.Now().Before(end); {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// assertOverlap fails a row whose pool of more than one worker never had two
// jobs in flight at once: the batch ran serially. With one core the Go
// scheduler may run the workers one after another, so there the row proves
// ordering only.
func assertOverlap(t *testing.T, workers int, f *inFlight) {
	t.Helper()
	n, peak := core.JobWorkers(workers), f.peak.Load()
	switch {
	case n < 2:
	case runtime.GOMAXPROCS(0) < 2:
		t.Logf("GOMAXPROCS=1: peak %d jobs in flight on %d workers; this row proves ordering only", peak, n)
	case peak < 2:
		t.Errorf("%d workers never had two jobs in flight at once: the batch ran serially", n)
	}
}

// TestMetamorphicSeedDeterminism: the same configuration simulated twice on
// independent runners produces byte-identical reports, and a different seed
// still satisfies every invariant.
func TestMetamorphicSeedDeterminism(t *testing.T) {
	for _, bench := range []string{"hotspot", "bfs", "sgemm"} {
		a := checkedRunner(config.Small(), 0.1)
		b := checkedRunner(config.Small(), 0.1)
		repA, err := a.Run(bench, core.WarpedGates)
		if err != nil {
			t.Fatal(err)
		}
		repB, err := b.Run(bench, core.WarpedGates)
		if err != nil {
			t.Fatal(err)
		}
		if fa, fb := core.FingerprintReport(repA), core.FingerprintReport(repB); fa != fb {
			t.Errorf("%s: same seed, different reports:\n  %s\n  %s", bench, fa, fb)
		}
	}

	// A perturbed seed changes the workload's dynamic behaviour but must not
	// break any invariant.
	cfg := config.Small()
	cfg.Seed = 0xfeedface
	r := checkedRunner(cfg, 0.1)
	if _, err := r.Run("hotspot", core.WarpedGates); err != nil {
		t.Fatalf("perturbed seed: %v", err)
	}
}

// TestMetamorphicScaleMonotonic: growing the workload never shrinks the
// run — cycle and issue counts are non-decreasing in Scale. (Close scales
// may round to identical work, so strict growth is not required.)
func TestMetamorphicScaleMonotonic(t *testing.T) {
	scales := []float64{0.1, 0.2, 0.4}
	for _, bench := range []string{"hotspot", "sgemm", "mri"} {
		for _, tech := range []core.Technique{core.Baseline, core.WarpedGates} {
			prevCycles, prevIssued := int64(-1), uint64(0)
			for _, s := range scales {
				r := checkedRunner(config.Small(), s)
				rep, err := r.Run(bench, tech)
				if err != nil {
					t.Fatalf("%s/%s scale %v: %v", bench, tech, s, err)
				}
				if rep.Cycles < prevCycles {
					t.Errorf("%s/%s: cycles shrank from %d to %d when scale grew to %v",
						bench, tech, prevCycles, rep.Cycles, s)
				}
				if rep.IssuedTotal < prevIssued {
					t.Errorf("%s/%s: issued shrank from %d to %d when scale grew to %v",
						bench, tech, prevIssued, rep.IssuedTotal, s)
				}
				prevCycles, prevIssued = rep.Cycles, rep.IssuedTotal
			}
		}
	}
}

// TestMetamorphicGatingNeutralWhenNeverTriggered: with the idle-detect window
// pushed beyond any idle period a gating policy can never fire, so every
// technique must be cycle-for-cycle identical to the same scheduler with
// gating disabled — power gating that never gates is performance-neutral by
// construction.
func TestMetamorphicGatingNeutralWhenNeverTriggered(t *testing.T) {
	const never = 1 << 20
	for _, tech := range core.GatedTechniques() {
		gated := tech.Apply(config.Small())
		gated.IdleDetect = never
		gated.IdleDetectMin = never
		gated.IdleDetectMax = never
		ungated := tech.Apply(config.Small())
		ungated.Gating = config.GateNone
		ungated.AdaptiveIdleDetect = false
		for _, bench := range []string{"hotspot", "nw"} {
			r := checkedRunner(config.Small(), 0.1)
			repG, err := r.RunCfg(bench, gated)
			if err != nil {
				t.Fatalf("%s/%s gated: %v", bench, tech, err)
			}
			repN, err := r.RunCfg(bench, ungated)
			if err != nil {
				t.Fatalf("%s/%s ungated: %v", bench, tech, err)
			}
			if fg, fn := core.FingerprintReport(repG), core.FingerprintReport(repN); fg != fn {
				t.Errorf("%s/%s: inert gating changed the run:\n  gated:   %s\n  ungated: %s",
					bench, tech, fg, fn)
			}
		}
	}
}
