package check_test

// Black-box harness tests: the full benchmark × technique matrix under the
// invariant checker, plus the metamorphic properties (seed determinism, scale
// monotonicity, gating neutrality, parallel/serial equality) the runner and
// simulator must satisfy. Everything here also runs under `go test -race`
// via `make verify` / the CI verify job.

import (
	"testing"

	"warpedgates/internal/check"
	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/kernels"
)

// matrixScale keeps the checked 18×6 matrix fast enough for -race while
// still draining tens of thousands of cycles per run.
const matrixScale = 0.2

// checkedRunner builds a small-machine runner with the invariant checker
// attached to every uncached simulation.
func checkedRunner(cfg config.Config, scale float64, sum *check.Summary) *core.Runner {
	r := core.NewRunner(cfg)
	r.Scale = scale
	r.Instrument = check.Instrument(sum)
	return r
}

// TestCheckedMatrix is the acceptance gate: all 18 kernels × every technique
// simulate with the checker attached and zero violations.
func TestCheckedMatrix(t *testing.T) {
	var sum check.Summary
	r := checkedRunner(config.Small(), matrixScale, &sum)
	for _, tech := range core.AllTechniques() {
		if _, err := r.RunMany(core.TechniqueJobs(r.Base, kernels.BenchmarkNames, tech)); err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
	}
	runs, checks := sum.Snapshot()
	if want := len(kernels.BenchmarkNames) * len(core.AllTechniques()); runs != want {
		t.Fatalf("checked %d simulations, want %d", runs, want)
	}
	if checks == 0 {
		t.Fatal("checker performed zero invariant evaluations")
	}
	t.Logf("verified %d simulations, %d invariant evaluations", runs, checks)
}

// TestCheckedMatrixWorkerShapes runs the full matrix as one batch through
// the job schedule — LPT dispatch on four job-level workers — with the
// invariant checker attached, and requires every report to fingerprint
// identical to a serial runner's (Parallelism=1). Under `go test -race` this
// is the data-race acceptance gate for concurrent checked jobs.
func TestCheckedMatrixWorkerShapes(t *testing.T) {
	base := config.Small()
	var sum check.Summary
	r := checkedRunner(base, matrixScale, &sum)
	r.Parallelism = 4
	serial := checkedRunner(config.Small(), matrixScale, nil)
	serial.Parallelism = 1
	jobs := make([]core.Job, 0, len(kernels.BenchmarkNames)*len(core.AllTechniques()))
	for _, b := range kernels.BenchmarkNames {
		for _, tech := range core.AllTechniques() {
			jobs = append(jobs, core.Job{Bench: b, Cfg: tech.Apply(base)})
		}
	}
	got, err := r.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		fg, fs := core.FingerprintReport(got[i]), core.FingerprintReport(want[i])
		if fg != fs {
			t.Errorf("%s/%s-%s: -j 4 diverged:\n  serial: %s\n  got:    %s",
				jobs[i].Bench, jobs[i].Cfg.Scheduler, jobs[i].Cfg.Gating, fs, fg)
		}
	}
	runs, checks := sum.Snapshot()
	if want := len(jobs); runs != want {
		t.Fatalf("checked %d simulations, want %d", runs, want)
	}
	if checks == 0 {
		t.Fatal("checker performed zero invariant evaluations")
	}
	t.Logf("verified %d -j 4 simulations, %d invariant evaluations", runs, checks)
}

// TestMetamorphicSeedDeterminism: the same configuration simulated twice on
// independent runners produces byte-identical reports, and a different seed
// still satisfies every invariant.
func TestMetamorphicSeedDeterminism(t *testing.T) {
	for _, bench := range []string{"hotspot", "bfs", "sgemm"} {
		a := checkedRunner(config.Small(), 0.1, nil)
		b := checkedRunner(config.Small(), 0.1, nil)
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
	r := checkedRunner(cfg, 0.1, nil)
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
				r := checkedRunner(config.Small(), s, nil)
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
			r := checkedRunner(config.Small(), 0.1, nil)
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

// TestMetamorphicParallelSerialEquality: the parallel runner is an
// optimization, not a semantic change — a -j 1 and a -j 8 runner over the
// same matrix produce identical reports in identical order.
func TestMetamorphicParallelSerialEquality(t *testing.T) {
	serial := checkedRunner(config.Small(), 0.1, nil)
	serial.Parallelism = 1
	parallel := checkedRunner(config.Small(), 0.1, nil)
	parallel.Parallelism = 8

	jobs := core.TechniqueJobs(config.Small(), kernels.BenchmarkNames, core.WarpedGates)
	a, err := serial.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("serial ran %d benchmarks, parallel %d", len(a), len(b))
	}
	for i, j := range jobs {
		fa, fb := core.FingerprintReport(a[i]), core.FingerprintReport(b[i])
		if fa != fb {
			t.Errorf("%s: serial and parallel reports differ:\n  serial:   %s\n  parallel: %s",
				j.Bench, fa, fb)
		}
	}
}
