package core

import (
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/stats"
)

// MixRow is one benchmark's measured dynamic instruction mix (paper Fig. 5a).
type MixRow struct {
	Benchmark string
	Mix       [isa.NumClasses]float64
}

// Fig5aResult carries the per-benchmark instruction mixes.
type Fig5aResult struct {
	Rows  []MixRow
	Table *stats.Table
}

// RunFig5a regenerates paper Figure 5a: the instruction mix of each
// benchmark, measured from the instructions actually issued during the
// baseline run (not from the static kernel profile).
func RunFig5a(r *Runner) (*Fig5aResult, error) {
	reps, err := r.RunMany(TechniqueJobs(r.Base, kernels.BenchmarkNames, Baseline))
	if err != nil {
		return nil, err
	}
	res := &Fig5aResult{}
	t := stats.NewTable("Fig. 5a — instruction mix (dynamic)", "benchmark", "INT", "FP", "SFU", "LDST")
	for i, b := range kernels.BenchmarkNames {
		row := MixRow{Benchmark: b, Mix: reps[i].InstructionMix()}
		res.Rows = append(res.Rows, row)
		t.AddRowf(b, row.Mix[isa.INT], row.Mix[isa.FP], row.Mix[isa.SFU], row.Mix[isa.LDST])
	}
	res.Table = t
	return res, nil
}

// WarpsRow is one benchmark's active-warp-set occupancy (paper Fig. 5b).
type WarpsRow struct {
	Benchmark string
	Max       int
	Average   float64
}

// Fig5bResult carries per-benchmark active warp statistics.
type Fig5bResult struct {
	Rows  []WarpsRow
	Table *stats.Table
}

// RunFig5b regenerates paper Figure 5b: the maximum and average size of the
// active warp set at runtime under the baseline two-level scheduler.
func RunFig5b(r *Runner) (*Fig5bResult, error) {
	reps, err := r.RunMany(TechniqueJobs(r.Base, kernels.BenchmarkNames, Baseline))
	if err != nil {
		return nil, err
	}
	res := &Fig5bResult{}
	t := stats.NewTable("Fig. 5b — runtime active warp set size", "benchmark", "max", "average")
	for i, b := range kernels.BenchmarkNames {
		row := WarpsRow{Benchmark: b, Max: reps[i].ActiveWarpMax, Average: reps[i].ActiveWarpAvg}
		res.Rows = append(res.Rows, row)
		t.AddRowf(b, row.Max, row.Average)
	}
	res.Table = t
	return res, nil
}
