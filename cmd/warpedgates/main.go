// Command warpedgates runs the Warped Gates reproduction: single benchmark
// simulations and full figure regeneration.
//
// Usage:
//
//	warpedgates list
//	    List benchmarks, techniques and figures.
//
//	warpedgates run -bench hotspot -tech WarpedGates [-sms 15] [-scale 1.0]
//	    Simulate one benchmark under one technique and print the report.
//
//	warpedgates figure -id fig9a [-scale 1.0] [-sms 15] [-j 8] [-csv DIR]
//	    Regenerate one paper figure (fig1b fig3 fig4 fig5a fig5b fig6 fig8a
//	    fig8b fig8c fig9a fig9b fig10 fig11a fig11b hw), one of the ablation
//	    studies (ablation-clusters ablation-maxhold ablation-idledetect
//	    ablation-scheduler ablation-aux), or "all".
//
//	warpedgates trace -bench hotspot -tech WarpedGates
//	    Render per-cycle ASCII waveforms of every gating domain.
//
//	warpedgates verify [-sms 15] [-scale 1.0] [-j 8] [-bench NAME] [-tech NAME]
//	    Run the benchmark x technique matrix with the cycle-level invariant
//	    checker attached and fail on any violation.
//
//	warpedgates bench [-sms 6] [-scale 0.25] [-out BENCH_sim.json]
//	    Time the benchmark x technique matrix (fast-forward on and off) and
//	    the steady-state per-cycle cost, writing the results as JSON.
//
//	warpedgates characterize
//	    Print the benchmark suite's workload characterization.
//
//	warpedgates compare
//	    Print paper-vs-measured tables for the headline results.
//
//	warpedgates sweep -benches hotspot,bfs -scales 1,2 -sample 1000/5000 -store DIR
//	    Expand a parameter grid into canonical jobs, deduplicate against the
//	    report store, run the remainder (optionally one -shard i/n of the
//	    sorted key space, optionally interval-sampled) and print aggregates.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/power"
	"warpedgates/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "figure":
		err = cmdFigure(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "benchcmp":
		err = cmdBenchcmp(os.Args[2:])
	case "characterize":
		err = cmdCharacterize(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "store":
		err = cmdStore(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "warpedgates: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "warpedgates: %v\n", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a command error to the process exit status. The bench floor
// gate's self-skip gets its own code so automation can tell "measured and
// passed" (0) from "host cannot measure" (3) from a real failure (1).
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errFloorSkipped):
		return 3
	default:
		return 1
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  warpedgates list
  warpedgates run -bench <name> -tech <technique> [-sms N] [-scale F] [-j N] [-workers N] [-sched MODE] [-store DIR]
  warpedgates figure -id <figure|all> [-sms N] [-scale F] [-j N] [-workers N] [-sched MODE] [-csv DIR] [-store DIR] [-v]
  warpedgates trace -bench <name> -tech <technique> [-from C] [-cycles N]
  warpedgates verify [-sms N] [-scale F] [-j N] [-workers N] [-sched MODE] [-bench <name>] [-tech <technique>] [-store DIR] [-v]
  warpedgates bench [-sms N] [-scale F] [-workers N] [-out BENCH_sim.json] [-store DIR]
                    [-floor X] [-makespan-floor X] [-calibrate FILE]
  warpedgates benchcmp OLD.json NEW.json
  warpedgates benchcmp -history DIR [-regress PCT]
  warpedgates characterize [-sms N] [-scale F] [-j N] [-workers N] [-sched MODE] [-store DIR]
  warpedgates compare [-sms N] [-scale F] [-j N] [-workers N] [-sched MODE] [-store DIR]
  warpedgates sweep [-spec FILE] [-benches a,b] [-techniques a,b] [-sms 4,8]
                    [-scales 1,2] [-seeds 0,1] [-idle-detects N,M] [-break-evens N,M]
                    [-wakeup-delays N,M] [-sample detail/period] [-shard i/n]
                    [-j N] [-workers N] [-sched MODE] [-store DIR] [-out REPORT.json] [-n] [-v]
  warpedgates store verify -store DIR

-j bounds the simulation worker pool (0, the default, uses every core);
figure regeneration is deterministic at any -j. -workers sets how many
goroutines step SMs inside each simulation (default 1; results are
bit-identical at any value — the runner shrinks its -j budget so jobs x
workers stays within -j).
-sched picks the job-level schedule: adaptive (default) orders jobs by the
calibrated cost model, longest first, and grants drained workers' budget to
still-running simulations; static keeps submission order and a fixed split.
Both produce byte-identical reports — scheduling is a wall-clock knob.
`+"`bench -calibrate FILE`"+` regenerates the committed cost table
(internal/core/costdata.json) and must produce no diff on an unchanged
simulator. bench -makespan-floor gates adaptive-vs-static matrix wall time
(enforced at >=4 cores, informational at 2-3, exit 3 on single-core).
-store DIR persists every report in a crash-safe checksummed on-disk store;
later runs at any -j/-workers serve byte-identical results from it without
simulating. `+"`store verify`"+` scrubs a store (checksums every entry,
quarantines damage, sweeps crash debris) and exits non-zero on corruption.
trace stays on the serial engine: it renders a globally ordered event stream.
run, figure, verify and bench also accept -cpuprofile FILE and
-memprofile FILE for pprof output.

exit codes: 0 success; 1 error; 2 usage; 3 bench -floor gate skipped
(single-core host cannot measure parallel scaling).`)
}

// addWorkersFlag registers the shared -workers flag, defaulting to 1 — the
// serial engine. Values above 1 select the phase-split parallel engine, which
// is bit-identical to serial at any worker count, so this is purely a
// wall-clock knob.
func addWorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 1,
		"goroutines stepping SMs inside each simulation (1 = serial engine; identical results at any value)")
}

// addSchedFlag registers the shared -sched flag selecting the runner's job
// scheduling mode. Adaptive (the default) orders jobs longest-predicted-first
// by the calibrated cost model and hands drained workers' budget to
// still-running simulations as extra intra-run workers; static keeps
// submission order and a fixed split. Scheduling never changes results, so
// output is byte-identical either way.
func addSchedFlag(fs *flag.FlagSet) *string {
	return fs.String("sched", "adaptive",
		"job scheduling: adaptive (cost-model LPT + tail worker reallocation) or static (submission order, fixed split); identical output either way")
}

func cmdList() error {
	fmt.Println("benchmarks:")
	for _, b := range kernels.BenchmarkNames {
		k := kernels.MustBenchmark(b)
		mix := k.Mix()
		fmt.Printf("  %-10s body=%3d iters=%2d warps/CTA=%d CTAs/SM=%d mix=[INT %.2f FP %.2f SFU %.2f LDST %.2f]\n",
			b, len(k.Body), k.Iterations, k.WarpsPerCTA, k.CTAsPerSM,
			mix[isa.INT], mix[isa.FP], mix[isa.SFU], mix[isa.LDST])
	}
	fmt.Println("techniques:")
	for _, t := range core.AllTechniques() {
		fmt.Printf("  %s\n", t)
	}
	fmt.Println("figures: fig1b fig3 fig4 fig5a fig5b fig6 fig8a fig8b fig8c fig9a fig9b fig10",
		"fig11a fig11b hw ablation-clusters ablation-maxhold ablation-idledetect",
		"ablation-scheduler ablation-aux all")
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	bench := fs.String("bench", "hotspot", "benchmark name")
	tech := fs.String("tech", "WarpedGates", "technique name")
	sms := fs.Int("sms", 15, "number of SMs")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	jobs := fs.Int("j", 0, "max concurrent simulations (0 = all cores)")
	workers := addWorkersFlag(fs)
	schedFlag := addSchedFlag(fs)
	storeDir := addStoreFlag(fs)
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()
	t, err := core.ParseTechnique(*tech)
	if err != nil {
		return err
	}
	sched, err := core.ParseSchedMode(*schedFlag)
	if err != nil {
		return err
	}
	cfg := config.GTX480()
	cfg.NumSMs = *sms
	cfg.IntraRunWorkers = *workers
	r := core.NewRunner(cfg)
	r.Scale = *scale
	r.Parallelism = *jobs
	r.Sched = sched
	st, err := attachStore(r, *storeDir)
	if err != nil {
		return err
	}
	defer reportStoreHealth(st)

	rep, err := r.Run(*bench, t)
	if err != nil {
		return err
	}
	model := power.Default(cfg.BreakEven)
	fmt.Println(rep)
	fmt.Printf("cycles: %d (hit MaxCycles: %v)\n", rep.Cycles, rep.RanOut)
	fmt.Printf("active warps: avg %.1f max %d\n", rep.ActiveWarpAvg, rep.ActiveWarpMax)
	fmt.Printf("L1 miss rate: %.3f\n", rep.L1MissRate)
	for _, c := range []isa.Class{isa.INT, isa.FP, isa.SFU, isa.LDST} {
		d := rep.Domains[c]
		bd := model.Analyze(rep, c)
		fmt.Printf("%-4s idle=%.3f comp=%.3f uncomp=%.3f gatings=%d wakeups=%d critical=%d staticSavings=%.3f\n",
			c, d.IdleFraction(), d.CompensatedFraction(), d.UncompensatedFraction(),
			d.GatingEvents, d.Wakeups, d.CriticalWakeups, bd.StaticSavings())
	}
	return nil
}

func cmdFigure(args []string) error {
	fs := flag.NewFlagSet("figure", flag.ExitOnError)
	id := fs.String("id", "all", "figure id or 'all'")
	sms := fs.Int("sms", 15, "number of SMs")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	jobs := fs.Int("j", 0, "max concurrent simulations (0 = all cores)")
	workers := addWorkersFlag(fs)
	schedFlag := addSchedFlag(fs)
	verbose := fs.Bool("v", false, "print progress")
	csvDir := fs.String("csv", "", "also write each figure as CSV into this directory")
	storeDir := addStoreFlag(fs)
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()
	sched, err := core.ParseSchedMode(*schedFlag)
	if err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	cfg := config.GTX480()
	cfg.NumSMs = *sms
	cfg.IntraRunWorkers = *workers
	r := core.NewRunner(cfg)
	r.Scale = *scale
	r.Parallelism = *jobs
	r.Sched = sched
	st, err := attachStore(r, *storeDir)
	if err != nil {
		return err
	}
	defer reportStoreHealth(st)
	if *verbose {
		r.Progress = func(b string, c config.Config) {
			fmt.Fprintf(os.Stderr, "  simulating %s under %s/%s (idle=%d bet=%d wake=%d adaptive=%v)\n",
				b, c.Scheduler, c.Gating, c.IdleDetect, c.BreakEven, c.WakeupDelay, c.AdaptiveIdleDetect)
		}
	}

	want := strings.ToLower(*id)
	ran := false
	show := func(figID string, gen func() (*stats.Table, error)) error {
		if want != "all" && want != figID {
			return nil
		}
		ran = true
		out, err := gen()
		if err != nil {
			return fmt.Errorf("%s: %w", figID, err)
		}
		fmt.Println(out)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, figID+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := out.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		return nil
	}

	figures := []struct {
		id  string
		gen func() (*stats.Table, error)
	}{
		{"fig1b", func() (*stats.Table, error) {
			f, err := core.RunFig1b(r)
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"fig3", func() (*stats.Table, error) {
			f, err := core.RunFig3(r, "hotspot")
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"fig4", func() (*stats.Table, error) {
			f, err := core.RunFig4()
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"fig5a", func() (*stats.Table, error) {
			f, err := core.RunFig5a(r)
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"fig5b", func() (*stats.Table, error) {
			f, err := core.RunFig5b(r)
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"fig6", func() (*stats.Table, error) {
			f, err := core.RunFig6(r, 0, 10)
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"fig8a", func() (*stats.Table, error) {
			f, err := core.RunFig8(r)
			return tbl(f != nil, err, func() *stats.Table { return f.TableA })
		}},
		{"fig8b", func() (*stats.Table, error) {
			f, err := core.RunFig8(r)
			return tbl(f != nil, err, func() *stats.Table { return f.TableB })
		}},
		{"fig8c", func() (*stats.Table, error) {
			f, err := core.RunFig8(r)
			return tbl(f != nil, err, func() *stats.Table { return f.TableC })
		}},
		{"fig9a", func() (*stats.Table, error) {
			f, err := core.RunFig9(r, isa.INT)
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"fig9b", func() (*stats.Table, error) {
			f, err := core.RunFig9(r, isa.FP)
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"fig10", func() (*stats.Table, error) {
			f, err := core.RunFig10(r)
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"fig11a", func() (*stats.Table, error) {
			f, err := core.RunFig11BET(r, []int{9, 14, 19})
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"fig11b", func() (*stats.Table, error) {
			f, err := core.RunFig11Wakeup(r, []int{3, 6, 9})
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"hw", func() (*stats.Table, error) {
			f := core.RunHWOverhead(cfg.NumSPClusters)
			return f.Table, nil
		}},
		{"ablation-clusters", func() (*stats.Table, error) {
			f, err := core.RunAblationClusters(r, []int{2, 4, 6})
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"ablation-maxhold", func() (*stats.Table, error) {
			f, err := core.RunAblationMaxHold(r, []int{0, 16, 64, 256})
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"ablation-idledetect", func() (*stats.Table, error) {
			f, err := core.RunAblationIdleDetect(r, []int{2, 5, 10, 20})
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"ablation-scheduler", func() (*stats.Table, error) {
			f, err := core.RunAblationScheduler(r)
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
		{"ablation-aux", func() (*stats.Table, error) {
			f, err := core.RunAblationAuxBlackout(r)
			return tbl(f != nil, err, func() *stats.Table { return f.Table })
		}},
	}
	for _, f := range figures {
		if err := show(f.id, f.gen); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure id %q", *id)
	}
	return nil
}

// tbl adapts a (result, error) pair to the (Stringer, error) the dispatcher
// wants, without dereferencing a nil result on error.
func tbl(ok bool, err error, get func() *stats.Table) (*stats.Table, error) {
	if err != nil || !ok {
		return nil, err
	}
	return get(), nil
}
