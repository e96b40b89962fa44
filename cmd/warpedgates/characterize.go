package main

import (
	"flag"
	"fmt"

	"warpedgates/internal/core"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/stats"
)

// cmdCharacterize prints the workload characterization of the benchmark
// suite in one table: dynamic instruction mix (paper Fig. 5a), active-warp
// occupancy (Fig. 5b), cache behaviour and baseline idle fractions — the
// inputs a reader needs to judge how closely the synthetic suite matches the
// paper's workloads.
func cmdCharacterize(args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ExitOnError)
	rf := addRunnerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	r, st, err := rf.runner()
	if err != nil {
		return err
	}
	defer reportStoreHealth(st)

	reps, err := r.RunMany(core.TechniqueJobs(r.Base, kernels.BenchmarkNames, core.Baseline))
	if err != nil {
		return err
	}
	t := stats.NewTable("Benchmark suite characterization (baseline two-level, no gating)",
		"benchmark", "cycles", "INT", "FP", "SFU", "LDST",
		"warps avg", "warps max", "L1 miss", "INT idle", "FP idle")
	for i, rep := range reps {
		mix := rep.InstructionMix()
		t.AddRowf(kernels.BenchmarkNames[i], rep.Cycles,
			mix[isa.INT], mix[isa.FP], mix[isa.SFU], mix[isa.LDST],
			rep.ActiveWarpAvg, rep.ActiveWarpMax, rep.L1MissRate,
			rep.Domains[isa.INT].IdleFraction(), rep.Domains[isa.FP].IdleFraction())
	}
	fmt.Println(t)
	return nil
}
