package main

import (
	"flag"
	"fmt"

	"warpedgates/internal/core"
	"warpedgates/internal/isa"
	"warpedgates/internal/paper"
	"warpedgates/internal/stats"
)

// cmdCompare regenerates the headline results and prints them side by side
// with the values the paper reports, producing the paper-vs-measured record
// mechanically (the source of EXPERIMENTS.md's summary tables).
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	rf := addRunnerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	r, st, err := rf.runner()
	if err != nil {
		return err
	}
	defer reportStoreHealth(st)

	fig9a, err := core.RunFig9(r, isa.INT)
	if err != nil {
		return err
	}
	fig9b, err := core.RunFig9(r, isa.FP)
	if err != nil {
		return err
	}
	fig10, err := core.RunFig10(r)
	if err != nil {
		return err
	}

	t := stats.NewTable("Paper vs measured — suite-level results",
		"metric", "technique", "paper", "measured", "delta")
	addRow := func(metric string, tech core.Technique, paperVal, measured float64) {
		t.AddRowf(metric, tech.String(), paperVal, measured, measured-paperVal)
	}
	for _, tech := range core.GatedTechniques() {
		addRow("Fig9a INT savings", tech, paper.Fig9aINTSavings[tech.String()], fig9a.Average[tech])
	}
	for _, tech := range core.GatedTechniques() {
		addRow("Fig9b FP savings", tech, paper.Fig9bFPSavings[tech.String()], fig9b.Average[tech])
	}
	for _, tech := range core.GatedTechniques() {
		addRow("Fig10 performance", tech, paper.Fig10Performance[tech.String()], fig10.Geomean[tech])
	}
	fmt.Println(t)

	// The qualitative claims the reproduction must preserve.
	checks := stats.NewTable("Shape checks", "claim", "holds")
	claim := func(name string, ok bool) { checks.AddRowf(name, ok) }
	claim("FP savings > INT savings (Warped Gates)",
		fig9b.Average[core.WarpedGates] > fig9a.Average[core.WarpedGates])
	claim("Blackout > ConvPG on INT savings",
		fig9a.Average[core.CoordBlackout] > fig9a.Average[core.ConvPG])
	claim("Warped Gates >= 1.3x ConvPG INT savings",
		fig9a.Average[core.WarpedGates] >= 1.3*fig9a.Average[core.ConvPG])
	claim("Naive Blackout is the slowest technique",
		fig10.Geomean[core.NaiveBlackout] <= fig10.Geomean[core.ConvPG] &&
			fig10.Geomean[core.NaiveBlackout] <= fig10.Geomean[core.CoordBlackout] &&
			fig10.Geomean[core.NaiveBlackout] <= fig10.Geomean[core.WarpedGates])
	// Small tolerance: Coordinated Blackout and Warped Gates are within each
	// other's noise band on performance (the paper separates them by ~1%).
	const eps = 0.005
	claim("Warped Gates fastest of the blackout techniques",
		fig10.Geomean[core.WarpedGates] >= fig10.Geomean[core.NaiveBlackout]-eps &&
			fig10.Geomean[core.WarpedGates] >= fig10.Geomean[core.CoordBlackout]-eps)
	fmt.Println(checks)
	return nil
}
