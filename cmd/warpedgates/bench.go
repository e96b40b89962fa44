package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
)

// benchCell is one benchmark × technique measurement.
type benchCell struct {
	Bench          string  `json:"bench"`
	Technique      string  `json:"technique"`
	Cycles         int64   `json:"cycles"`
	WallMS         float64 `json:"wall_ms"`
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
}

// benchReport is the BENCH_sim.json payload.
type benchReport struct {
	SMs   int     `json:"sms"`
	Scale float64 `json:"scale"`
	// GOMAXPROCS records how many cores the measurement could actually use —
	// required context for judging Makespan.
	GOMAXPROCS int `json:"gomaxprocs"`

	// SteadyState measures the hot loop alone (one busy SM, warmed buffers):
	// its allocs_per_cycle is the zero-allocation claim of the simulator.
	SteadyState struct {
		Bench          string  `json:"bench"`
		Technique      string  `json:"technique"`
		NsPerCycle     float64 `json:"ns_per_cycle"`
		AllocsPerCycle float64 `json:"allocs_per_cycle"`
	} `json:"steady_state"`

	// Cells cover the full benchmark × technique matrix; their alloc counts
	// include device construction, amortized over the run.
	Cells []benchCell `json:"cells"`

	// Makespan is the full benchmark × technique matrix's wall time through
	// the job-level runner (LPT admission, fixed worker pool) on a fresh
	// runner, so it measures simulation and scheduling, not caching.
	// Interpret it against "gomaxprocs".
	Makespan struct {
		Jobs       int     `json:"jobs"`
		JobWorkers int     `json:"job_workers"`
		MS         float64 `json:"ms"`
	} `json:"makespan"`
}

// cmdBench times the full benchmark × technique matrix serially (one
// simulation at a time, bypassing the runner's memoization so every cell is
// really executed), measures the steady-state per-cycle cost and the
// matrix's makespan through the job-level runner, and writes everything as
// JSON.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	sms := fs.Int("sms", 6, "number of SMs")
	scale := fs.Float64("scale", 0.25, "workload scale factor")
	out := fs.String("out", "BENCH_sim.json", "output JSON path")
	storeDir := addStoreFlag(fs)
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			return err
		}
		defer reportStoreHealth(st)
	}

	base := config.GTX480()
	base.NumSMs = *sms

	var rep benchReport
	rep.SMs = *sms
	rep.Scale = *scale
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)

	runCell := func(bench string, tech core.Technique) (benchCell, *sim.Report, config.Config, error) {
		cfg := tech.Apply(base)
		k := kernels.MustBenchmark(bench).Scale(*scale)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		gpu, err := sim.NewGPU(cfg, k)
		if err != nil {
			return benchCell{}, nil, cfg, err
		}
		r := gpu.Run()
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		cell := benchCell{
			Bench:     bench,
			Technique: tech.String(),
			Cycles:    r.Cycles,
			WallMS:    float64(wall.Nanoseconds()) / 1e6,
		}
		if r.Cycles > 0 {
			cell.NsPerCycle = float64(wall.Nanoseconds()) / float64(r.Cycles)
			cell.AllocsPerCycle = float64(m1.Mallocs-m0.Mallocs) / float64(r.Cycles)
		}
		return cell, r, cfg, nil
	}

	// commitCell persists a finished report to the durable store, after the
	// timing window closes so store I/O never pollutes a measurement. Bench
	// runs every cell for real either way; with -store, that effort also warms
	// the same cache later run/figure/verify invocations hit.
	commitCell := func(bench string, cfg config.Config, r *sim.Report) {
		if st == nil {
			return
		}
		payload, err := sim.EncodeReport(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: store encode %s: %v\n", bench, err)
			return
		}
		if err := st.Put(core.JobKey(bench, cfg, *scale), payload); err != nil {
			fmt.Fprintf(os.Stderr, "bench: store put %s: %v\n", bench, err)
		}
	}

	techs := core.AllTechniques()
	fmt.Fprintf(os.Stderr, "bench: %d benchmarks x %d techniques at sms=%d scale=%g\n",
		len(kernels.BenchmarkNames), len(techs), *sms, *scale)
	for _, bench := range kernels.BenchmarkNames {
		for _, tech := range techs {
			cell, r, cfg, err := runCell(bench, tech)
			if err != nil {
				return err
			}
			commitCell(bench, cfg, r)
			rep.Cells = append(rep.Cells, cell)
		}
	}

	// Makespan: the full matrix through the job-level runner on a fresh
	// runner (empty cache, no store), so it times real simulation.
	mr := core.NewRunner(base)
	mr.Scale = *scale
	jobs := core.TechniqueJobs(base, kernels.BenchmarkNames, techs...)
	rep.Makespan.Jobs = len(jobs)
	rep.Makespan.JobWorkers = min(core.JobWorkers(0), len(jobs))
	runtime.GC()
	t0 := time.Now()
	if _, err := mr.RunMany(jobs); err != nil {
		return err
	}
	rep.Makespan.MS = float64(time.Since(t0).Nanoseconds()) / 1e6

	// Steady-state hot-loop cost: a busy SM under the full proposal. A
	// 163840-cycle warmup lets the event arena reach its high-water mark,
	// after which the measured window allocates nothing; the warmup is kept
	// fixed so steady_state stays comparable across snapshots.
	steadyCfg := core.WarpedGates.Apply(config.GTX480())
	steadyKernel := kernels.MustBenchmark("hotspot").Scale(100)
	ns, allocs, err := sim.MeasureSteadyCycle(steadyCfg, steadyKernel, 10*16384, 100000)
	if err != nil {
		return err
	}
	rep.SteadyState.Bench = "hotspot"
	rep.SteadyState.Technique = core.WarpedGates.String()
	rep.SteadyState.NsPerCycle = ns
	rep.SteadyState.AllocsPerCycle = allocs

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("steady state: %.0f ns/cycle, %g allocs/cycle\n", ns, allocs)
	fmt.Printf("makespan (%d jobs, %d job workers): %.0f ms\n",
		rep.Makespan.Jobs, rep.Makespan.JobWorkers, rep.Makespan.MS)
	fmt.Printf("wrote %s (%d cells)\n", *out, len(rep.Cells))
	return nil
}
