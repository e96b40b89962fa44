package core

import (
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
	"warpedgates/internal/stats"
)

// Fig8Row is one benchmark's power-gating-opportunity metrics for the
// integer units (paper Figure 8; FP exhibits the same trends per the paper).
type Fig8Row struct {
	Benchmark string
	// IdleFrac maps technique -> fraction of idle cycles normalized to the
	// two-level baseline's fraction (Fig. 8a; >1 means more idle extracted).
	IdleFrac map[Technique]float64
	// CompMinusUncomp maps technique -> (compensated − uncompensated)
	// cycles as a fraction of all cycles (Fig. 8b; negative bars mean more
	// time uncompensated than compensated).
	CompMinusUncomp map[Technique]float64
	// WakeupsNorm maps technique -> wakeups normalized to ConvPG (Fig. 8c;
	// wakeup count is the direct proxy for gating overhead).
	WakeupsNorm map[Technique]float64
}

// Fig8Result carries the three panels of paper Figure 8 plus geomeans.
type Fig8Result struct {
	Rows []Fig8Row
	// Geomean* aggregate each panel the way the paper reports it.
	GeomeanIdle    map[Technique]float64
	GeomeanComp    map[Technique]float64
	GeomeanWakeups map[Technique]float64

	TableA *stats.Table
	TableB *stats.Table
	TableC *stats.Table
}

// fig8aTechs/fig8bTechs/fig8cTechs are the technique series of each panel,
// exactly as the paper's legends list them.
var (
	fig8aTechs = []Technique{GATESTech, CoordBlackout, WarpedGates}
	fig8bTechs = []Technique{ConvPG, GATESTech, WarpedGates}
	fig8cTechs = []Technique{GATESTech, CoordBlackout, WarpedGates}
)

// RunFig8 regenerates paper Figures 8a (normalized fraction of idle cycles),
// 8b (cycles in compensated state) and 8c (normalized wakeups) for the
// integer units.
func RunFig8(r *Runner) (*Fig8Result, error) {
	// Union of the three panels' series plus the two normalization runs.
	techs := []Technique{Baseline, ConvPG, GATESTech, CoordBlackout, WarpedGates}
	reps, err := r.RunMany(TechniqueJobs(r.Base, kernels.BenchmarkNames, techs...))
	if err != nil {
		return nil, err
	}
	var res Fig8Result
	for bi, b := range kernels.BenchmarkNames {
		d := make(map[Technique]*sim.DomainStats, len(techs))
		for ti, tech := range techs {
			d[tech] = &reps[bi*len(techs)+ti].Domains[isa.INT]
		}
		row := Fig8Row{
			Benchmark:       b,
			IdleFrac:        map[Technique]float64{},
			CompMinusUncomp: map[Technique]float64{},
			WakeupsNorm:     map[Technique]float64{},
		}
		for _, t := range fig8aTechs {
			row.IdleFrac[t] = stats.Ratio(d[t].IdleFraction(), d[Baseline].IdleFraction())
		}
		for _, t := range fig8bTechs {
			row.CompMinusUncomp[t] = d[t].CompensatedFraction() - d[t].UncompensatedFraction()
		}
		for _, t := range fig8cTechs {
			row.WakeupsNorm[t] = stats.Ratio(float64(d[t].Wakeups), float64(d[ConvPG].Wakeups))
		}
		res.Rows = append(res.Rows, row)
	}

	res.TableA, res.GeomeanIdle = techPanel("Fig. 8a — normalized fraction of INT idle cycles",
		fig8aTechs, res.Rows, func(row Fig8Row) (string, map[Technique]float64) { return row.Benchmark, row.IdleFrac },
		"geomean", stats.Geomean)
	// Fig. 8b values can be negative; the paper quotes the mean share of
	// compensated cycles, so aggregate with the arithmetic mean.
	res.TableB, res.GeomeanComp = techPanel("Fig. 8b — compensated minus uncompensated cycles (fraction)",
		fig8bTechs, res.Rows, func(row Fig8Row) (string, map[Technique]float64) { return row.Benchmark, row.CompMinusUncomp },
		"mean", stats.Mean)
	res.TableC, res.GeomeanWakeups = techPanel("Fig. 8c — wakeups normalized to ConvPG",
		fig8cTechs, res.Rows, func(row Fig8Row) (string, map[Technique]float64) { return row.Benchmark, row.WakeupsNorm },
		"geomean", stats.Geomean)
	return &res, nil
}

// techPanel builds one benchmark × technique panel of Figs. 8–10. cells
// yields a row's benchmark and its value per technique; the table has one
// column per technique in techs and a last row named aggName holding agg of
// each column. The per-technique aggregates are returned with the table.
func techPanel[R any](title string, techs []Technique, rows []R,
	cells func(R) (string, map[Technique]float64), aggName string, agg func([]float64) float64) (*stats.Table, map[Technique]float64) {

	header := []string{"benchmark"}
	for _, t := range techs {
		header = append(header, t.String())
	}
	tab := stats.NewTable(title, header...)
	series := make(map[Technique][]float64, len(techs))
	for _, row := range rows {
		bench, vals := cells(row)
		line := []interface{}{bench}
		for _, t := range techs {
			line = append(line, vals[t])
			series[t] = append(series[t], vals[t])
		}
		tab.AddRowf(line...)
	}
	aggs := make(map[Technique]float64, len(techs))
	line := []interface{}{aggName}
	for _, t := range techs {
		aggs[t] = agg(series[t])
		line = append(line, aggs[t])
	}
	tab.AddRowf(line...)
	return tab, aggs
}
