package core

import (
	"fmt"

	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/power"
	"warpedgates/internal/stats"
)

// Fig9Row is one benchmark's static-energy savings per technique for one
// unit class (paper Figure 9).
type Fig9Row struct {
	Benchmark string
	Savings   map[Technique]float64
}

// Fig9Result carries one panel of paper Figure 9 (9a = INT, 9b = FP), with
// the suite average as the paper reports it.
type Fig9Result struct {
	Class   isa.Class
	Rows    []Fig9Row
	Average map[Technique]float64
	Table   *stats.Table
}

// RunFig9 regenerates paper Figure 9 for one unit class: net static energy
// savings (normalized to a no-gating baseline, overhead included) for all
// five techniques. For the FP panel, integer-only benchmarks are excluded,
// matching the paper.
func RunFig9(r *Runner, class isa.Class) (*Fig9Result, error) {
	if class != isa.INT && class != isa.FP {
		return nil, fmt.Errorf("core: Fig. 9 covers INT and FP only, got %s", class)
	}
	var benches []string
	for _, b := range kernels.BenchmarkNames {
		if class == isa.FP && kernels.IntegerOnly(b) {
			continue
		}
		benches = append(benches, b)
	}
	if err := r.Prefetch(techniqueJobs(r.Base, benches, append([]Technique{Baseline}, GatedTechniques()...)...)); err != nil {
		return nil, err
	}
	model := power.Default(r.Base.BreakEven)
	res := &Fig9Result{Class: class}
	for _, b := range benches {
		base, err := r.Run(b, Baseline)
		if err != nil {
			return nil, err
		}
		row := Fig9Row{Benchmark: b, Savings: map[Technique]float64{}}
		for _, tech := range GatedTechniques() {
			rep, err := r.Run(b, tech)
			if err != nil {
				return nil, err
			}
			row.Savings[tech] = model.AnalyzeAgainst(rep, base, class).StaticSavings()
		}
		res.Rows = append(res.Rows, row)
	}
	panel := "9a"
	if class == isa.FP {
		panel = "9b"
	}
	res.Table, res.Average = techPanel(fmt.Sprintf("Fig. %s — %s static energy savings", panel, class),
		GatedTechniques(), res.Rows, func(row Fig9Row) (string, map[Technique]float64) { return row.Benchmark, row.Savings },
		"average", stats.Mean)
	return res, nil
}
