package core

import (
	"fmt"

	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/stats"
)

// Fig6Point is one (critical wakeups, runtime) observation for one benchmark
// at one static idle-detect value.
type Fig6Point struct {
	IdleDetect        int
	CriticalsPer1000  float64 // per SM, INT+FP combined
	NormalizedRuntime float64 // technique cycles / baseline cycles (>= ~1)
}

// Fig6Row is one benchmark's sweep and its Pearson correlation coefficient —
// the number the paper prints next to each benchmark name in Figure 6.
type Fig6Row struct {
	Benchmark string
	Points    []Fig6Point
	Pearson   float64
}

// Fig6Result carries the whole Figure 6 study.
type Fig6Result struct {
	Rows  []Fig6Row
	Table *stats.Table
}

// RunFig6 regenerates paper Figure 6: for each benchmark, Blackout power
// gating is run with static idle-detect values swept over [lo, hi] (the
// paper uses 0–10), and the per-1000-cycle critical wakeup rate is
// correlated with the normalized runtime. Strong positive correlation is the
// paper's justification for using critical wakeups as the control signal of
// Adaptive idle detect.
func RunFig6(r *Runner, lo, hi int) (*Fig6Result, error) {
	var jobs []Job
	for _, b := range kernels.BenchmarkNames {
		jobs = append(jobs, Job{Bench: b, Cfg: Baseline.Apply(r.Base)})
		for id := lo; id <= hi; id++ {
			cfg := CoordBlackout.Apply(r.Base)
			cfg.IdleDetect = id
			jobs = append(jobs, Job{Bench: b, Cfg: cfg})
		}
	}
	reps, err := r.RunMany(jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{}
	t := stats.NewTable("Fig. 6 — critical wakeups vs normalized runtime (Pearson r)",
		"benchmark", "r", "points(idle-detect:criticals/1k:runtime)")
	stride := len(jobs) / len(kernels.BenchmarkNames)
	for bi, b := range kernels.BenchmarkNames {
		base := reps[bi*stride]
		row := Fig6Row{Benchmark: b}
		var xs, ys []float64
		for id := lo; id <= hi; id++ {
			rep := reps[bi*stride+1+id-lo]
			crit := rep.CriticalWakeupsPer1000(isa.INT) + rep.CriticalWakeupsPer1000(isa.FP)
			runtime := stats.Ratio(float64(rep.Cycles), float64(base.Cycles))
			row.Points = append(row.Points, Fig6Point{
				IdleDetect:        id,
				CriticalsPer1000:  crit,
				NormalizedRuntime: runtime,
			})
			xs = append(xs, crit)
			ys = append(ys, runtime)
		}
		row.Pearson = stats.Pearson(xs, ys)
		res.Rows = append(res.Rows, row)

		series := ""
		for _, p := range row.Points {
			if series != "" {
				series += " "
			}
			series += fmt.Sprintf("%d:%.2f:%.3f", p.IdleDetect, p.CriticalsPer1000, p.NormalizedRuntime)
		}
		t.AddRowf(b, row.Pearson, series)
	}
	res.Table = t
	return res, nil
}
