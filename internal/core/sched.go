package core

import (
	"math"
	"runtime"
	"sort"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// The job schedule of Dispatch: a fixed pool of job-level workers, and LPT
// admission — longest predicted first, by the committed calibration table.
// Scheduling can never change a result (every job is deterministic and
// results are positional), only wall time, so nothing about it is part of
// any cache key.

// JobWorkers returns the job-level worker-pool bound for a parallelism
// budget (0 = GOMAXPROCS). Each simulation runs on one goroutine, so the
// budget is the pool size.
func JobWorkers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// lptJobs returns the indices of n jobs in LPT admission order, job(i)
// naming the i'th job's benchmark, configuration and scale. Predictions come
// from DefaultCostModel. A job that will fail its cheap validation (unknown
// benchmark, invalid config) sorts ahead of everything: LPT must not bury a
// doomed job behind long simulations, or a batch's fail-fast guarantee
// becomes fail-after-the-longest-cell. The job still runs normally — this
// only sets its dispatch position.
func lptJobs(n int, job func(i int) (bench string, cfg config.Config, scale float64)) []int {
	cost := DefaultCostModel()
	pred := make([]float64, n)
	for i := range pred {
		bench, cfg, scale := job(i)
		if _, err := kernels.BenchmarkProfile(bench); err != nil {
			pred[i] = math.Inf(1)
		} else if err := cfg.Validate(); err != nil {
			pred[i] = math.Inf(1)
		} else {
			pred[i] = cost.Predict(bench, cfg, scale)
		}
	}
	return lptOrder(pred)
}

// lptOrder returns job indices sorted by descending predicted cost. The sort
// is stable, so equal predictions keep submission order and the schedule is
// deterministic.
func lptOrder(pred []float64) []int {
	order := make([]int, len(pred))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return pred[order[a]] > pred[order[b]]
	})
	return order
}
