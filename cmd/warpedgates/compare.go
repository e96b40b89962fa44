package main

import (
	"flag"
	"fmt"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/isa"
	"warpedgates/internal/paper"
	"warpedgates/internal/stats"
)

// cmdCompare regenerates the headline results and prints them side by side
// with the values the paper reports, producing the paper-vs-measured record
// mechanically (the source of EXPERIMENTS.md's summary tables). It then
// checks the Fig. 9 and 10 rows of the paper's claims table on this run and
// fails when one does not hold.
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

	// The paper's shape claims (core.Claims) over the panels this run
	// regenerated. A run on the paper's machine checks the full-scale rows;
	// any other machine or scale checks only the rows that hold at both.
	vals := core.HeadlineValues(fig9a, fig9b, fig10)
	scale := core.BothScales
	if r.Base == config.GTX480() && r.Scale == 1 {
		scale = core.FullScale
	}
	checks := stats.NewTable("Paper claims", "figure", "claim", "scale", "measured", "holds")
	failed := 0
	for _, c := range core.Claims {
		if !vals.Has(c.Figure) || !c.AppliesAt(scale) {
			continue
		}
		measured, ok := c.Eval(vals)
		checks.AddRowf(c.Figure, c.Name, c.Scale.String(), measured, ok)
		if !ok {
			failed++
		}
	}
	fmt.Println(checks)
	if failed > 0 {
		return fmt.Errorf("compare: %d paper claim(s) fail", failed)
	}
	return nil
}
