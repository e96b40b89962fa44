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

// exitCode maps a command error to the process exit status: 0 on success,
// 1 on any error (2, for usage, is reported before a command runs).
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	return 1
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  warpedgates list
  warpedgates run -bench <name> -tech <technique> [-sms N] [-scale F] [-j N] [-store DIR]
  warpedgates figure -id <figure|all> [-sms N] [-scale F] [-j N] [-csv DIR] [-store DIR] [-v]
  warpedgates trace -bench <name> -tech <technique> [-from C] [-cycles N]
  warpedgates verify [-sms N] [-scale F] [-j N] [-bench <name>] [-tech <technique>] [-store DIR] [-v]
  warpedgates bench [-sms N] [-scale F] [-out BENCH_sim.json] [-store DIR]
                    [-calibrate FILE]
  warpedgates benchcmp OLD.json NEW.json
  warpedgates benchcmp -history DIR [-regress PCT]
  warpedgates characterize [-sms N] [-scale F] [-j N] [-store DIR]
  warpedgates compare [-sms N] [-scale F] [-j N] [-store DIR]
  warpedgates sweep [-spec FILE] [-benches a,b] [-techniques a,b] [-sms 4,8]
                    [-scales 1,2] [-seeds 0,1] [-idle-detects N,M] [-break-evens N,M]
                    [-wakeup-delays N,M] [-sample detail/period] [-shard i/n]
                    [-j N] [-store DIR] [-out REPORT.json] [-n] [-v]
  warpedgates store verify -store DIR

-j bounds the simulation worker pool (0, the default, uses every core);
figure regeneration is deterministic at any -j. Each simulation runs on one
goroutine.
Batches dispatch longest-predicted job first, by the committed cost table;
the order is a wall-clock matter only.
`+"`bench -calibrate FILE`"+` regenerates the committed cost table
(internal/core/costdata.json) and must produce no diff on an unchanged
simulator.
-store DIR persists every report in a crash-safe checksummed on-disk store;
later runs at any -j serve byte-identical results from it without
simulating. `+"`store verify`"+` scrubs a store (checksums every entry,
quarantines damage, sweeps crash debris) and exits non-zero on corruption.
run, figure, verify and bench also accept -cpuprofile FILE and
-memprofile FILE for pprof output.

exit codes: 0 success; 1 error; 2 usage.`)
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
	fmt.Print("figures:")
	for _, f := range core.Figures {
		fmt.Print(" ", f.ID)
	}
	fmt.Println(" all")
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	bench := fs.String("bench", "hotspot", "benchmark name")
	tech := fs.String("tech", "WarpedGates", "technique name")
	rf := addRunnerFlags(fs)
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
	r, st, err := rf.runner()
	if err != nil {
		return err
	}
	defer reportStoreHealth(st)

	rep, err := r.Run(*bench, t)
	if err != nil {
		return err
	}
	model := power.Default(r.Base.BreakEven)
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
	rf := addRunnerFlags(fs)
	verbose := fs.Bool("v", false, "print progress")
	csvDir := fs.String("csv", "", "also write each figure as CSV into this directory")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	r, st, err := rf.runner()
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
	for _, f := range core.Figures {
		if want != "all" && want != f.ID {
			continue
		}
		ran = true
		out, err := f.Gen(r)
		if err != nil {
			return fmt.Errorf("%s: %w", f.ID, err)
		}
		fmt.Println(out)
		if *csvDir == "" {
			continue
		}
		path := filepath.Join(*csvDir, f.ID+".csv")
		w, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := out.WriteCSV(w); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	if !ran {
		return fmt.Errorf("unknown figure id %q", *id)
	}
	return nil
}
