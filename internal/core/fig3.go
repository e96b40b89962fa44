package core

import (
	"fmt"

	"warpedgates/internal/isa"
	"warpedgates/internal/stats"
)

// IdleRegions is one idle-period-length distribution partitioned into the
// paper's three regions (paper Figure 3): too short to gate, gated but
// uncompensated, and net-positive.
type IdleRegions struct {
	Technique Technique
	// Wasted is the fraction of idle periods shorter than idle-detect.
	Wasted float64
	// Negative is the fraction in [idle-detect, idle-detect+BET): gated
	// windows that end before break-even (net energy loss).
	Negative float64
	// Positive is the fraction >= idle-detect+BET (net energy savings).
	Positive float64
	// MeanLength is the mean idle-period length in cycles.
	MeanLength float64
	// Periods is the number of idle periods observed.
	Periods uint64
}

// Fig3Result carries the three distributions of paper Figure 3 for one
// benchmark (the paper shows hotspot): conventional gating under the
// two-level scheduler, GATES, and GATES+Blackout.
type Fig3Result struct {
	Benchmark string
	Rows      []IdleRegions
	Table     *stats.Table
}

// RunFig3 regenerates paper Figure 3 for the given benchmark (the paper uses
// hotspot), measuring the CUDA-core (INT+FP) idle-period distribution under
// ConvPG (3a), GATES (3b) and GATES+Blackout (3c). Panel 3c uses Naive
// Blackout: with no coordination exceptions, every idle run that reaches the
// idle-detect window is forced past break-even, which empties the middle
// region exactly as the paper's Figure 3c shows (0.0%).
func RunFig3(r *Runner, benchmark string) (*Fig3Result, error) {
	res := &Fig3Result{Benchmark: benchmark}
	idle := r.Base.IdleDetect
	bet := r.Base.BreakEven
	techs := []Technique{ConvPG, GATESTech, NaiveBlackout}
	reps, err := r.RunMany(TechniqueJobs(r.Base, []string{benchmark}, techs...))
	if err != nil {
		return nil, err
	}
	for i, tech := range techs {
		rep := reps[i]
		// Merge INT and FP idle-period histograms: both unit types are CUDA
		// cores, the subject of the figure.
		h := stats.NewHistogram()
		h.Merge(rep.Domains[isa.INT].IdlePeriods)
		h.Merge(rep.Domains[isa.FP].IdlePeriods)
		r1, r2, r3 := h.Regions3(idle, bet)
		res.Rows = append(res.Rows, IdleRegions{
			Technique:  tech,
			Wasted:     r1,
			Negative:   r2,
			Positive:   r3,
			MeanLength: h.Mean(),
			Periods:    h.Total(),
		})
	}

	t := stats.NewTable(
		fmt.Sprintf("Fig. 3 — idle period distribution for %s (idle-detect %d, BET %d)", benchmark, idle, bet),
		"technique", "<idle-detect", "idle..idle+BET", ">=idle+BET", "mean len", "periods")
	for _, row := range res.Rows {
		t.AddRowf(row.Technique.String(), row.Wasted, row.Negative, row.Positive,
			row.MeanLength, row.Periods)
	}
	res.Table = t
	return res, nil
}
