package core

import (
	"fmt"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/power"
	"warpedgates/internal/stats"
)

// Fig11Point is one sweep point of the sensitivity study (paper Figure 11):
// the suite-average INT and FP static savings and the geomean performance of
// one technique at one parameter value.
type Fig11Point struct {
	Technique  Technique
	ParamValue int
	IntSavings float64
	FpSavings  float64
	Perf       float64
}

// Fig11Result carries one panel of the sensitivity study.
type Fig11Result struct {
	Param  string // "BET" or "wakeup"
	Points []Fig11Point
	Table  *stats.Table
}

// RunFig11BET regenerates paper Figure 11a: sensitivity to the break-even
// time (paper values 9, 14, 19) for conventional power gating and Warped
// Gates.
func RunFig11BET(r *Runner, values []int) (*Fig11Result, error) {
	return runFig11(r, "BET", values, func(cfg *config.Config, v int) { cfg.BreakEven = v })
}

// RunFig11Wakeup regenerates paper Figure 11b: sensitivity to the wakeup
// delay (paper values 3, 6, 9).
func RunFig11Wakeup(r *Runner, values []int) (*Fig11Result, error) {
	return runFig11(r, "wakeup", values, func(cfg *config.Config, v int) { cfg.WakeupDelay = v })
}

// runFig11 runs one sensitivity sweep. Each point is priced by the power
// model of its own break-even time.
func runFig11(r *Runner, param string, values []int, set func(*config.Config, int)) (*Fig11Result, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("core: Fig. 11 sweep needs at least one value")
	}
	res := &Fig11Result{Param: param}
	var variants []suiteVariant
	for _, tech := range []Technique{ConvPG, WarpedGates} {
		for _, v := range values {
			cfg := tech.Apply(r.Base)
			set(&cfg, v)
			variants = append(variants, suiteVariant{Baseline.Apply(r.Base), cfg, power.Default(cfg.BreakEven)})
			res.Points = append(res.Points, Fig11Point{Technique: tech, ParamValue: v})
		}
	}
	avgs, err := suiteAverages(r, variants, isa.INT, isa.FP)
	if err != nil {
		return nil, err
	}
	res.Table = stats.NewTable(fmt.Sprintf("Fig. 11 — sensitivity to %s", param),
		"technique", param, "Int savings", "Fp savings", "perf")
	for i := range res.Points {
		p := &res.Points[i]
		p.IntSavings, p.FpSavings, p.Perf = avgs[i].a, avgs[i].b, avgs[i].perf
		res.Table.AddRowf(p.Technique.String(), p.ParamValue, p.IntSavings, p.FpSavings, p.Perf)
	}
	return res, nil
}

// suiteVariant is one point of a suite-average study: the configuration cfg
// measured against the configuration base, both priced by model.
type suiteVariant struct {
	base, cfg config.Config
	model     power.Model
}

// suiteAverage is one variant's suite-wide result: mean static savings of
// the two measured unit classes and geomean performance (base cycles over
// variant cycles).
type suiteAverage struct {
	a, b, perf float64
}

// suiteAverages is the one driver behind Fig. 11 and every ablation. It
// simulates each variant's base and cfg on every paper benchmark in one
// parallel batch and returns one suiteAverage per variant, in order. The
// batch's job list is also the aggregation's index, so what is dispatched
// and what is averaged cannot disagree. A base shared by several variants
// is simulated once: the runner's cache collapses the repeats. Class A
// averages over every benchmark; class B does too, except that FP skips
// the integer-only benchmarks, as the paper does.
func suiteAverages(r *Runner, variants []suiteVariant, classA, classB isa.Class) ([]suiteAverage, error) {
	benches := kernels.BenchmarkNames
	jobs := make([]Job, 0, 2*len(variants)*len(benches))
	for _, v := range variants {
		for _, b := range benches {
			jobs = append(jobs, Job{Bench: b, Cfg: v.base}, Job{Bench: b, Cfg: v.cfg})
		}
	}
	reps, err := r.RunMany(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]suiteAverage, len(variants))
	for i, v := range variants {
		var a, b, perf []float64
		for j, bench := range benches {
			k := 2 * (i*len(benches) + j)
			base, rep := reps[k], reps[k+1]
			a = append(a, v.model.AnalyzeAgainst(rep, base, classA).StaticSavings())
			if classB != isa.FP || !kernels.IntegerOnly(bench) {
				b = append(b, v.model.AnalyzeAgainst(rep, base, classB).StaticSavings())
			}
			perf = append(perf, stats.Ratio(float64(base.Cycles), float64(rep.Cycles)))
		}
		out[i] = suiteAverage{stats.Mean(a), stats.Mean(b), stats.Geomean(perf)}
	}
	return out, nil
}
