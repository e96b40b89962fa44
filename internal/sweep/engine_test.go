package sweep

import (
	"context"
	"testing"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/store"
)

// sweepBase is the cheap machine config the end-to-end sweeps run on: the
// small machine with a hard cycle cap so each of the hundreds of cells costs
// milliseconds. MaxCycles does not change what the dedup accounting must
// prove (each unique key simulated exactly once, then served from the store).
func sweepBase() config.Config {
	cfg := config.Small()
	cfg.MaxCycles = 2500
	return cfg
}

// bigSpec expands to >= 500 unique cells: 18 benches x 6 techniques x
// 2 scales x 2 seeds = 432... plus a second idle-detect point = 864.
func bigSpec() Spec {
	return Spec{
		Scales:      []float64{0.02, 0.03},
		Seeds:       []uint64{1, 2},
		IdleDetects: []int{5, 9},
	}
}

// TestSweepEndToEndStoreDedup is the tentpole acceptance test: a >= 500-cell
// sweep runs end-to-end through the durable store, and re-running it — on a
// cold engine over the reopened store — performs zero new simulations, with
// every cell served as a store hit and identical rows.
func TestSweepEndToEndStoreDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of cells; skipped with -short")
	}
	dir := t.TempDir()
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := &Engine{Base: sweepBase(), Store: s1}
	rep1, err := e1.Run(context.Background(), bigSpec(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Cells < 500 {
		t.Fatalf("sweep has %d cells, want >= 500", rep1.Cells)
	}
	if rep1.Failed > 0 {
		for _, r := range rep1.Results {
			if r.Err != "" {
				t.Errorf("cell %s failed: %s", r.Key, r.Err)
			}
		}
		t.Fatalf("%d cells failed", rep1.Failed)
	}
	if rep1.Simulated != rep1.Cells {
		t.Errorf("first run simulated %d of %d cells (expansion produced duplicates?)",
			rep1.Simulated, rep1.Cells)
	}
	if rep1.StoreHits != 0 {
		t.Errorf("first run hit the empty store %d times", rep1.StoreHits)
	}

	// Cold engine, reopened store: everything must come from disk.
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := &Engine{Base: sweepBase(), Store: s2}
	rep2, err := e2.Run(context.Background(), bigSpec(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Simulated != 0 {
		t.Errorf("re-run performed %d new simulations, want 0", rep2.Simulated)
	}
	if rep2.StoreHits != rep2.Cells {
		t.Errorf("re-run store hits %d, want %d", rep2.StoreHits, rep2.Cells)
	}
	if len(rep1.Results) != len(rep2.Results) {
		t.Fatalf("row counts differ: %d vs %d", len(rep1.Results), len(rep2.Results))
	}
	for i := range rep1.Results {
		// Whole rows: a store replay must match a fresh run in Err,
		// Sampled and SampleErrorEst too, not only the counters.
		if a, b := rep1.Results[i], rep2.Results[i]; a != b {
			t.Fatalf("row %d differs between runs:\n%+v\n%+v", i, a, b)
		}
	}
	t.Logf("sweep: %d cells, first run %v (%d sims), re-run %v (%d store hits)",
		rep1.Cells, rep1.WallTime.Round(time.Millisecond), rep1.Simulated,
		rep2.WallTime.Round(time.Millisecond), rep2.StoreHits)
}

// TestSweepShardsComposeToWholeGrid runs the same spec as three separate
// shard processes (cold engines over one store) and then the unsharded sweep:
// the shards must have simulated every cell exactly once between them, so
// the final whole-grid pass performs zero simulations.
func TestSweepShardsComposeToWholeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of cells; skipped with -short")
	}
	dir := t.TempDir()
	spec := Spec{
		Benches: []string{"nw", "hotspot", "bfs"},
		Scales:  []float64{0.02, 0.03},
		Seeds:   []uint64{1, 2},
	}
	const n = 3
	var simulated int
	for i := 0; i < n; i++ {
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Base: sweepBase(), Store: s}
		rep, err := e.Run(context.Background(), spec, i, n)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed > 0 {
			t.Fatalf("shard %d/%d: %d cells failed", i, n, rep.Failed)
		}
		simulated += rep.Simulated
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Base: sweepBase(), Store: s}
	rep, err := e.Run(context.Background(), spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if simulated != rep.Cells {
		t.Errorf("shards simulated %d cells between them, grid has %d", simulated, rep.Cells)
	}
	if rep.Simulated != 0 {
		t.Errorf("whole-grid pass after sharded runs performed %d simulations, want 0", rep.Simulated)
	}
}

// TestSweepToleratesCellFailure pins that one bad cell costs one row: next
// to a valid sampled cell, a sampled cell whose period is not larger than its
// detail window fails config validation, and the report records it without
// failing the sweep. The valid cell splices, so it also pins the report's
// sampled aggregates: over one estimate, max and mean are that estimate.
func TestSweepToleratesCellFailure(t *testing.T) {
	base := config.Small()
	e := &Engine{Base: base}
	var cells []Cell
	for _, spec := range []Spec{
		{SampleDetail: 200, SamplePeriod: 1000},
		{SampleDetail: 500, SamplePeriod: 500}, // invalid: period must exceed detail
	} {
		spec.Benches = []string{"nw"}
		spec.Techniques = []string{"Baseline"}
		spec.SMs = []int{2}
		spec.Scales = []float64{1.0}
		c, err := Expand(spec, base)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c...)
	}
	rep, err := e.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Completed != 1 {
		t.Fatalf("want 1 failed and 1 completed row, got failed=%d completed=%d", rep.Failed, rep.Completed)
	}
	var good CellResult
	for _, r := range rep.Results {
		if r.Err == "" {
			good = r
		} else if r.Cell.SamplePeriod != 500 {
			t.Errorf("valid cell %s failed: %s", r.Key, r.Err)
		}
	}
	if !good.Sampled || good.SampleErrorEst <= 0 {
		t.Fatalf("valid cell did not splice: sampled=%t est=%g", good.Sampled, good.SampleErrorEst)
	}
	if rep.MaxSampleErrorEst != good.SampleErrorEst || rep.MeanSampleErrorEst != good.SampleErrorEst {
		t.Errorf("sampled aggregates: max %g mean %g, want both %g (the one estimate)",
			rep.MaxSampleErrorEst, rep.MeanSampleErrorEst, good.SampleErrorEst)
	}
	t.Logf("valid cell: cycles=%d est=%.2f%%", good.Cycles, good.SampleErrorEst*100)
}

// TestSampledSweepSpeedup is the acceptance perf gate: on long scale-2.0
// workloads the sampled sweep simulates at most a third of the device cycles
// the detailed sweep does over the same cells, and every sampled cell carries
// an error estimate at or below the documented corpus ceiling's estimate
// budget (15%; the *actual* error ceiling of 5% is asserted against full runs
// by internal/sim's TestSampledModeCorpusErrorBound). The bound is on
// simulated cycles, which are deterministic, rather than on wall time, which
// another test binary on the same cores can move; the wall ratio is logged.
// Runs serially on one worker so the logged wall ratio measures the engine,
// not the scheduler.
func TestSampledSweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-2.0 detailed references are slow; skipped with -short")
	}
	base := config.Small()
	base.NumSMs = 4
	spec := Spec{
		Benches:    []string{"hotspot", "mri", "bfs", "kmeans"},
		Techniques: []string{"Baseline", "CoordBlackout", "WarpedGates"},
		SMs:        []int{4},
		Scales:     []float64{2.0},
	}
	sampled := spec
	sampled.SampleDetail = 1000
	sampled.SamplePeriod = 5000

	e := &Engine{Base: base, Parallelism: 1}
	det, err := e.Run(context.Background(), spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if det.Failed > 0 {
		t.Fatalf("%d detailed cells failed", det.Failed)
	}
	smp, err := e.Run(context.Background(), sampled, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if smp.Failed > 0 {
		t.Fatalf("%d sampled cells failed", smp.Failed)
	}

	var detCycles, smpCycles int64
	for _, r := range det.Results {
		detCycles += r.Cycles
	}
	for _, r := range smp.Results {
		if !r.Sampled {
			t.Errorf("cell %s did not sample", r.Key)
		}
		rep, ok := e.CachedReport(r.Key)
		if !ok {
			t.Fatalf("cell %s: no cached report", r.Key)
		}
		smpCycles += rep.SampledDetailCycles
	}
	if smp.MaxSampleErrorEst > 0.15 {
		t.Errorf("max per-cell error estimate %.2f%% exceeds the 15%% estimate budget",
			smp.MaxSampleErrorEst*100)
	}
	if smpCycles == 0 {
		t.Fatal("sampled cells simulated no detailed cycles")
	}
	ratio := float64(detCycles) / float64(smpCycles)
	t.Logf("detailed %d cycles in %v, sampled %d cycles in %v: %.2fx cycles, %.2fx wall (max est %.2f%%, mean est %.2f%%)",
		detCycles, det.WallTime.Round(time.Millisecond), smpCycles, smp.WallTime.Round(time.Millisecond),
		ratio, float64(det.WallTime)/float64(smp.WallTime), smp.MaxSampleErrorEst*100, smp.MeanSampleErrorEst*100)
	// The ratio reads 3.39x over these 12 cells.
	if ratio < 3.0 {
		t.Errorf("sampled sweep simulates only %.2fx fewer cycles than detailed, want >= 3x", ratio)
	}
}
