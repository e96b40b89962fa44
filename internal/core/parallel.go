package core

import (
	"context"
	"sync"

	"warpedgates/internal/config"
	"warpedgates/internal/sim"
)

// Job is one simulation request for RunMany: a benchmark name and the full
// configuration to run it under.
type Job struct {
	Bench string
	Cfg   config.Config
}

// TechniqueJobs builds the benches × techniques cross product against base,
// in (bench, technique) iteration order.
func TechniqueJobs(base config.Config, benches []string, techs ...Technique) []Job {
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

// RunManyCtx simulates every job through Dispatch (Parallelism workers,
// default GOMAXPROCS) and returns reports aligned with jobs. Duplicate jobs
// cost one simulation: the singleflight cache collapses them. Results are
// positional, so output assembled from them is identical to a serial loop
// over jobs. On failure or cancellation it returns a nil slice and the
// first-cause error, after every worker has drained.
func (r *Runner) RunManyCtx(ctx context.Context, jobs []Job) ([]*sim.Report, error) {
	out := make([]*sim.Report, len(jobs))
	err := Dispatch(ctx, r.Parallelism, len(jobs),
		func(i int) (string, config.Config, float64) { return jobs[i].Bench, jobs[i].Cfg, r.Scale },
		func(ctx context.Context, i int) (err error) {
			out[i], err = r.RunCfgCtx(ctx, jobs[i].Bench, jobs[i].Cfg)
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Dispatch runs run(ctx, i) for every i in [0, n) on JobWorkers(parallelism)
// goroutines; job(i) names the i'th job's benchmark, configuration and scale
// for the cost model. It is the one job scheduler behind RunManyCtx and the
// sweep engine. At one worker it runs every job inline in index order.
// Otherwise it admits jobs in LPT order — longest predicted first, by the
// committed calibration table (see lptJobs). The order cannot change a
// result: jobs are deterministic and callers store results positionally.
//
// Cancellation and failure share one mechanism: the batch context. The first
// run error cancels it with that error as the cause, which stops admission
// (queued jobs never start) and aborts in-flight simulations at their next
// device step; a caller canceling ctx does exactly the same with its own
// cause. Either way Dispatch returns only after every worker has drained,
// with the first-cause error.
func Dispatch(ctx context.Context, parallelism, n int,
	job func(i int) (bench string, cfg config.Config, scale float64),
	run func(ctx context.Context, i int) error) error {
	workers := min(JobWorkers(parallelism), n)
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			if err := run(ctx, i); err != nil {
				return err
			}
		}
		if ctx.Err() != nil {
			return ctxErr(ctx)
		}
		return nil
	}

	order := lptJobs(n, job)
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
				if err := run(ctx, i); err != nil {
					cancel(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return ctxErr(ctx)
	}
	return nil
}
