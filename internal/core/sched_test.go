package core

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// TestWorkersBudgetSplit pins the job-level worker pool a parallelism budget
// buys: every core of the budget is a job worker, and an unset budget means
// GOMAXPROCS.
func TestWorkersBudgetSplit(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ j, want int }{
		{8, 8},
		{3, 3},
		{1, 1},
		{0, procs},
		{-1, procs},
	} {
		if got := JobWorkers(tc.j); got != tc.want {
			t.Errorf("JobWorkers(%d) = %d, want %d", tc.j, got, tc.want)
		}
	}
}

// TestLPTOrder pins the admission order: descending predicted cost, stable
// among ties (so equal predictions keep submission order), +Inf — the doomed
// job marker — first of all.
func TestLPTOrder(t *testing.T) {
	for _, tc := range []struct {
		pred []float64
		want []int
	}{
		{[]float64{1, 5, 3}, []int{1, 2, 0}},
		{[]float64{2, 2, 2}, []int{0, 1, 2}}, // stable: ties keep submission order
		{[]float64{1, 5, math.Inf(1), 3}, []int{2, 1, 3, 0}},
		{[]float64{}, []int{}},
	} {
		if got := lptOrder(tc.pred); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("lptOrder(%v) = %v, want %v", tc.pred, got, tc.want)
		}
	}
	// lptJobs predicts from the committed table (lbm runs far longer than
	// nw) and pins doomed jobs — unknown benchmark, invalid config — first.
	cfg := config.Small()
	bad := cfg
	bad.NumSMs = 0
	jobs := []Job{{"nw", cfg}, {"no-such-benchmark", cfg}, {"lbm", cfg}, {"nw", bad}}
	got := lptJobs(len(jobs), func(i int) (string, config.Config, float64) {
		return jobs[i].Bench, jobs[i].Cfg, CalCostScale
	})
	if want := []int{1, 3, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("lptJobs = %v, want %v", got, want)
	}
}

// costTestModel builds a model over a tiny synthetic table at the standard
// calibration point.
func costTestModel() *CostModel {
	return NewCostModel(&CostTable{
		SMS:   CalCostSMS,
		Scale: CalCostScale,
		Cells: []CostCell{
			{Bench: "short", Cycles: 1000},
			{Bench: "long", Cycles: 3000},
		},
	})
}

// TestCostModelPrior pins the prediction's extrapolation: linear in workload
// scale and SM count from the calibration point, scaled down by the sampled
// detail fraction (floored so a sampled run never predicts free).
func TestCostModelPrior(t *testing.T) {
	m := costTestModel()
	cfg := config.Small()
	cfg.NumSMs = CalCostSMS
	at := func(c config.Config, scale float64) float64 { return m.Predict("short", c, scale) }

	ref := at(cfg, CalCostScale)
	if ref != 1000 {
		t.Fatalf("prediction at the calibration point = %g, want the calibration cycles (1000)", ref)
	}
	if got := at(cfg, 2*CalCostScale); got != 2*ref {
		t.Errorf("doubling scale: %g, want %g", got, 2*ref)
	}
	big := cfg
	big.NumSMs = 3 * CalCostSMS
	if got := at(big, CalCostScale); got != 3*ref {
		t.Errorf("tripling SMs: %g, want %g", got, 3*ref)
	}
	sampled := cfg
	sampled.SampleDetailCycles, sampled.SamplePeriod = 1000, 4000
	if got := at(sampled, CalCostScale); got != ref/4 {
		t.Errorf("1/4 sampling: %g, want %g", got, ref/4)
	}
	tiny := cfg
	tiny.SampleDetailCycles, tiny.SamplePeriod = 1, 100000
	if got := at(tiny, CalCostScale); got != 0.05*ref {
		t.Errorf("extreme sampling must floor at 5%%: got %g, want %g", got, 0.05*ref)
	}
	// Unknown benches predict at the table mean so ordering stays total.
	if got := m.Predict("mystery", cfg, CalCostScale); got != 2000 {
		t.Errorf("unknown bench = %g, want table mean 2000", got)
	}
}

// TestCostTableCommittedFresh is the calibration acceptance check: running the
// calibration reproduces the committed internal/core/costdata.json byte for
// byte. A diff means either the encoder lost determinism or the simulator's
// cycle counts moved and the committed table is stale — regenerate with
// `warpedgates bench -calibrate internal/core/costdata.json`.
func TestCostTableCommittedFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration simulates every benchmark; skipped with -short")
	}
	tab, err := CalibrateCostTable()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("costdata.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("committed costdata.json is stale or calibration lost determinism\n(regenerate with: go run ./cmd/warpedgates bench -calibrate internal/core/costdata.json)")
	}
	if len(tab.Cells) != len(kernels.BenchmarkNames) {
		t.Fatalf("calibration covered %d benchmarks, want %d", len(tab.Cells), len(kernels.BenchmarkNames))
	}
}

// schedRunner builds a fresh small-matrix runner with the given job-level
// worker count.
func schedRunner(par int) *Runner {
	r := NewRunner(config.Small())
	r.Scale = 0.2
	r.Parallelism = par
	return r
}

// TestRunManyFailFast pins the doomed-job ordering: a job that cannot pass
// validation sorts ahead of every simulation under LPT, so the batch fails
// in milliseconds instead of after the longest cell.
func TestRunManyFailFast(t *testing.T) {
	r := schedRunner(4)
	jobs := TechniqueJobs(config.Small(), kernels.BenchmarkNames, Baseline)
	jobs = append(jobs, Job{Bench: "no-such-benchmark", Cfg: Baseline.Apply(r.Base)})
	t0 := time.Now()
	reps, err := r.RunMany(jobs)
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if reps != nil {
		t.Fatal("failed batch returned partial results")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("doomed job took %v to surface — LPT buried it behind simulations", d)
	}
}
