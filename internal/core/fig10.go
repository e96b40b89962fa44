package core

import (
	"warpedgates/internal/kernels"
	"warpedgates/internal/stats"
)

// Fig10Row is one benchmark's normalized performance per technique
// (paper Figure 10; 1.0 = no slowdown relative to the no-gating baseline).
type Fig10Row struct {
	Benchmark   string
	Performance map[Technique]float64
}

// Fig10Result carries the performance comparison with per-technique geomeans.
type Fig10Result struct {
	Rows    []Fig10Row
	Geomean map[Technique]float64
	Table   *stats.Table
}

// RunFig10 regenerates paper Figure 10: the performance impact of each
// gating technique, normalized to the no-gating two-level baseline.
func RunFig10(r *Runner) (*Fig10Result, error) {
	if _, err := r.RunMany(TechniqueJobs(r.Base, kernels.BenchmarkNames,
		append([]Technique{Baseline}, GatedTechniques()...)...)); err != nil {
		return nil, err
	}
	res := &Fig10Result{}
	for _, b := range kernels.BenchmarkNames {
		row := Fig10Row{Benchmark: b, Performance: map[Technique]float64{}}
		for _, tech := range GatedTechniques() {
			p, err := r.Performance(b, tech)
			if err != nil {
				return nil, err
			}
			row.Performance[tech] = p
		}
		res.Rows = append(res.Rows, row)
	}
	res.Table, res.Geomean = techPanel("Fig. 10 — normalized performance (1.0 = baseline)",
		GatedTechniques(), res.Rows, func(row Fig10Row) (string, map[Technique]float64) { return row.Benchmark, row.Performance },
		"geomean", stats.Geomean)
	return res, nil
}
