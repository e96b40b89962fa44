package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"warpedgates/internal/check"
	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
)

// cmdVerify runs the benchmark × technique matrix with the cycle-level
// invariant checker attached to every simulation and reports the verdict.
// It exits non-zero on the first violation (the error names the benchmark,
// cycle, rule and the offending lane).
//
// With -store DIR it additionally proves the durable tier faithful: the
// checked run populates the store, then a cold runner (empty in-memory cache,
// same store) replays the matrix and every cell must (a) be served from the
// store — hit count equals cell count — and (b) fingerprint byte-identically
// to the freshly simulated report.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	rf := addRunnerFlags(fs)
	bench := fs.String("bench", "", "verify a single benchmark (default: all)")
	tech := fs.String("tech", "", "verify a single technique (default: all)")
	verbose := fs.Bool("v", false, "print progress")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()

	benches := kernels.BenchmarkNames
	if *bench != "" {
		if _, err := kernels.Benchmark(*bench); err != nil {
			return err
		}
		benches = []string{*bench}
	}
	techs := core.AllTechniques()
	if *tech != "" {
		t, err := core.ParseTechnique(*tech)
		if err != nil {
			return err
		}
		techs = []core.Technique{t}
	}

	r, st, err := rf.runner()
	if err != nil {
		return err
	}
	// The checked pass deliberately runs without the store attached: a store
	// hit bypasses instrumentation, so pre-existing entries would silently
	// skip invariant checking. Every cell simulates fresh here; the store
	// proof below commits and replays them afterwards.
	r.Store = nil
	var sum check.Summary
	r.Instrument = check.Instrument(&sum)
	if *verbose {
		r.Progress = func(b string, c config.Config) {
			fmt.Fprintf(os.Stderr, "  checking %s under %s/%s\n", b, c.Scheduler, c.Gating)
		}
	}

	jobList := core.TechniqueJobs(r.Base, benches, techs...)
	t0 := time.Now()
	reps, err := r.RunMany(jobList)
	if err != nil {
		return err
	}

	fmt.Printf("%-10s", "benchmark")
	for _, t := range techs {
		fmt.Printf(" %13s", t)
	}
	fmt.Println()
	i := 0
	for _, b := range benches {
		fmt.Printf("%-10s", b)
		for range techs {
			fmt.Printf(" %13d", reps[i].Cycles)
			i++
		}
		fmt.Println()
	}
	runs, checks := sum.Snapshot()
	fmt.Printf("\nverified %d simulations (%d benchmarks x %d techniques) in %v: %d invariant evaluations, 0 violations\n",
		runs, len(benches), len(techs), time.Since(t0).Round(time.Millisecond), checks)
	if st == nil {
		return nil
	}
	return verifyStore(st, r, jobList, reps)
}

// verifyStore proves the durable tier returns bytes identical to fresh
// simulation. It commits every checked report to the store, then replays the
// matrix on a cold runner — empty in-memory cache, same store — and requires
// that (a) the store served every cell (its hit counter advanced by exactly
// the cell count, so nothing was silently re-simulated) and (b) each replayed
// report fingerprints identically to the fresh one.
func verifyStore(st *store.Store, r *core.Runner, jobList []core.Job, fresh []*sim.Report) error {
	for i, j := range jobList {
		payload, err := sim.EncodeReport(fresh[i])
		if err != nil {
			return fmt.Errorf("verify: encode %s: %w", j.Bench, err)
		}
		if err := st.Put(core.JobKey(j.Bench, j.Cfg, r.Scale), payload); err != nil {
			return fmt.Errorf("verify: store put %s: %w", j.Bench, err)
		}
	}
	before := st.Health().Hits

	cold := core.NewRunner(r.Base)
	cold.Scale = r.Scale
	cold.Parallelism = r.Parallelism
	cold.Store = st
	replayed, err := cold.RunMany(jobList)
	if err != nil {
		return fmt.Errorf("verify: store replay: %w", err)
	}

	if got, want := st.Health().Hits-before, uint64(len(jobList)); got != want {
		return fmt.Errorf("verify: store served %d of %d cells — the rest were re-simulated instead of read back", got, want)
	}
	for i, j := range jobList {
		f, c := core.FingerprintReport(fresh[i]), core.FingerprintReport(replayed[i])
		if f != c {
			return fmt.Errorf("verify: store round-trip diverged for %s under %s/%s:\n fresh:  %s\n cached: %s",
				j.Bench, j.Cfg.Scheduler, j.Cfg.Gating, f, c)
		}
	}
	fmt.Printf("store proof: %d cells committed, replayed cold from %s, all fingerprints byte-identical\n",
		len(jobList), st.Dir())
	reportStoreHealth(st)
	return nil
}
