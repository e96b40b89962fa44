package core

import (
	"context"
	"sync"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
)

// Job is one simulation request for RunMany: a benchmark name and the full
// configuration to run it under.
type Job struct {
	Bench string
	Cfg   config.Config
}

// techniqueJobs builds the benches × techniques cross product against base,
// in (bench, technique) iteration order.
func techniqueJobs(base config.Config, benches []string, techs ...Technique) []Job {
	jobs := make([]Job, 0, len(benches)*len(techs))
	for _, b := range benches {
		for _, t := range techs {
			jobs = append(jobs, Job{Bench: b, Cfg: t.Apply(base)})
		}
	}
	return jobs
}

// RunMany simulates every job on a bounded worker pool; it is RunManyCtx
// under a background context.
func (r *Runner) RunMany(jobs []Job) ([]*sim.Report, error) {
	return r.RunManyCtx(context.Background(), jobs)
}

// RunManyCtx simulates every job on a bounded worker pool (Parallelism
// workers, default GOMAXPROCS) and returns reports aligned with jobs.
// Duplicate jobs cost one simulation: the singleflight cache collapses them.
// Results are positional, so output assembled from them is identical to a
// serial loop over jobs.
//
// The dispatcher admits jobs in LPT order — longest predicted first, by the
// committed calibration table (see LPTOrder) — onto a fixed budget split
// (see JobWorkers). The order cannot change a result: results are
// positional, jobs deterministic at any worker count.
//
// Cancellation and failure share one mechanism: the job context. The first
// job error cancels it with that error as the cause, which stops the
// dispatcher (queued jobs never start) and aborts in-flight simulations at
// their next epoch boundary; a caller canceling ctx does exactly the same
// with its own cause. Either way RunManyCtx returns only after every worker
// has drained, with a nil slice and the first-cause error.
func (r *Runner) RunManyCtx(ctx context.Context, jobs []Job) ([]*sim.Report, error) {
	out := make([]*sim.Report, len(jobs))
	workers := JobWorkers(r.Parallelism, r.Base)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, j := range jobs {
			rep, err := r.RunCfgCtx(ctx, j.Bench, j.Cfg)
			if err != nil {
				return nil, err
			}
			out[i] = rep
		}
		return out, nil
	}

	order := LPTOrder(len(jobs), func(i int) (string, config.Config, float64) {
		return jobs[i].Bench, jobs[i].Cfg, r.Scale
	})
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	next := make(chan int)
	go func() {
		defer close(next)
		for _, i := range order {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rep, err := r.RunCfgCtx(ctx, jobs[i].Bench, jobs[i].Cfg)
				if err != nil {
					cancel(err)
					return
				}
				out[i] = rep
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(ctx)
	}
	return out, nil
}

// RunAllParallel simulates every paper benchmark under technique t on the
// worker pool and returns reports in kernels.BenchmarkNames order. Because
// each simulation is deterministic and results are assembled positionally,
// the output is byte-identical to serial RunAllOrdered.
func (r *Runner) RunAllParallel(t Technique) ([]NamedReport, error) {
	reps, err := r.RunMany(techniqueJobs(r.Base, kernels.BenchmarkNames, t))
	if err != nil {
		return nil, err
	}
	out := make([]NamedReport, len(reps))
	for i, rep := range reps {
		out[i] = NamedReport{Benchmark: kernels.BenchmarkNames[i], Report: rep}
	}
	return out, nil
}

// Prefetch warms the cache with every job in parallel, failing fast on the
// first error. Figure drivers call it with exactly the job set their serial
// aggregation loop consumes: the loop then runs entirely against the cache,
// which keeps figure assembly (and therefore output bytes) identical to the
// serial path while the simulations themselves use every core.
func (r *Runner) Prefetch(jobs []Job) error {
	_, err := r.RunMany(jobs)
	return err
}
