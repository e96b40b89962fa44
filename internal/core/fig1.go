package core

import (
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/power"
	"warpedgates/internal/stats"
)

// EnergySplit is one stacked bar of paper Figure 1b: the energy breakdown of
// a unit class normalized to that unit's no-gating baseline total.
type EnergySplit struct {
	Technique Technique
	Class     isa.Class
	Dynamic   float64
	Overhead  float64
	Static    float64
}

// Total returns the normalized total energy of the bar.
func (e EnergySplit) Total() float64 { return e.Dynamic + e.Overhead + e.Static }

// Fig1bResult carries the four bars of paper Figure 1b: baseline and
// conventional power gating, each for the INT and FP units, averaged over
// the benchmark suite.
type Fig1bResult struct {
	Bars  []EnergySplit
	Table *stats.Table
}

// RunFig1b regenerates paper Figure 1b: the average energy breakdown of the
// integer and floating point units without gating and under conventional
// power gating, normalized per benchmark to the no-gating total of the unit.
func RunFig1b(r *Runner) (*Fig1bResult, error) {
	techs := []Technique{Baseline, ConvPG}
	reps, err := r.RunMany(TechniqueJobs(r.Base, kernels.BenchmarkNames, techs...))
	if err != nil {
		return nil, err
	}
	model := power.Default(r.Base.BreakEven)
	res := &Fig1bResult{}
	for ti, tech := range techs {
		for _, class := range []isa.Class{isa.INT, isa.FP} {
			var dyn, ovh, sta, n float64
			for bi, b := range kernels.BenchmarkNames {
				if class == isa.FP && kernels.IntegerOnly(b) {
					continue
				}
				base, rep := reps[bi*len(techs)], reps[bi*len(techs)+ti]
				denom := model.Analyze(base, class).BaselineTotal()
				if denom == 0 {
					continue
				}
				bd := model.AnalyzeAgainst(rep, base, class)
				dyn += bd.Dynamic / denom
				ovh += bd.Overhead / denom
				sta += bd.Static / denom
				n++
			}
			if n > 0 {
				dyn, ovh, sta = dyn/n, ovh/n, sta/n
			}
			res.Bars = append(res.Bars, EnergySplit{
				Technique: tech, Class: class, Dynamic: dyn, Overhead: ovh, Static: sta,
			})
		}
	}

	t := stats.NewTable("Fig. 1b — normalized energy breakdown of execution units",
		"technique", "unit", "dynamic", "overhead", "static", "total")
	for _, b := range res.Bars {
		t.AddRowf(b.Technique.String(), b.Class.String(), b.Dynamic, b.Overhead, b.Static, b.Total())
	}
	res.Table = t
	return res, nil
}
