package main

import (
	"flag"
	"fmt"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/isa"
	"warpedgates/internal/stats"
)

// cmdCharacterize prints the workload characterization of the benchmark
// suite in one table: dynamic instruction mix (paper Fig. 5a), active-warp
// occupancy (Fig. 5b), cache behaviour and baseline idle fractions — the
// inputs a reader needs to judge how closely the synthetic suite matches the
// paper's workloads.
func cmdCharacterize(args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ExitOnError)
	sms := fs.Int("sms", 15, "number of SMs")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	jobs := fs.Int("j", 0, "max concurrent simulations (0 = all cores)")
	storeDir := addStoreFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := config.GTX480()
	cfg.NumSMs = *sms
	r := core.NewRunner(cfg)
	r.Scale = *scale
	r.Parallelism = *jobs
	st, err := attachStore(r, *storeDir)
	if err != nil {
		return err
	}
	defer reportStoreHealth(st)

	reps, err := r.RunAllParallel(core.Baseline)
	if err != nil {
		return err
	}
	t := stats.NewTable("Benchmark suite characterization (baseline two-level, no gating)",
		"benchmark", "cycles", "INT", "FP", "SFU", "LDST",
		"warps avg", "warps max", "L1 miss", "INT idle", "FP idle")
	for _, nr := range reps {
		rep := nr.Report
		mix := rep.InstructionMix()
		t.AddRowf(nr.Benchmark, rep.Cycles,
			mix[isa.INT], mix[isa.FP], mix[isa.SFU], mix[isa.LDST],
			rep.ActiveWarpAvg, rep.ActiveWarpMax, rep.L1MissRate,
			rep.Domains[isa.INT].IdleFraction(), rep.Domains[isa.FP].IdleFraction())
	}
	fmt.Println(t)
	return nil
}
