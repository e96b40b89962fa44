// Package power implements the energy model of the reproduction. The paper
// uses GPUWattch/McPAT on top of GPGPU-Sim; here the model is analytic and
// calibrated (see Model's field docs), which preserves every result the paper
// reports because those results are all *relative*: static energy savings are
// normalized to a no-gating baseline and depend only on gated-cycle fractions,
// gating-event counts, and the break-even relation E_overhead = BET × P_static
// — the definition of break-even time from Hu et al. [13] that both the paper
// and this model take as ground truth.
package power

import (
	"fmt"

	"warpedgates/internal/isa"
	"warpedgates/internal/sim"
)

// Model holds per-unit power constants in arbitrary consistent energy units
// (1 unit = the static energy one 16-lane execution cluster leaks in one
// cycle when the model's INT static power is 1).
type Model struct {
	// StaticPerCycle is the leakage power of one powered gating domain per
	// cycle, per class. FP pipelines are substantially larger than INT
	// pipelines (GPUWattch attributes ~790x more leakage to GTX480's FP
	// units than to its INT units; we keep a milder 3x that still yields
	// the paper's Fig. 1b energy splits when combined with utilization).
	StaticPerCycle [isa.NumClasses]float64
	// DynamicPerInstr is the switching energy of one warp instruction on a
	// unit of the class, calibrated so that the *baseline* static/dynamic
	// split matches paper Fig. 1b: ≈50% static for INT, ≈90% for FP.
	DynamicPerInstr [isa.NumClasses]float64
	// GatedResidualFraction is the leakage remaining while gated (a real
	// sleep transistor does not cut leakage to exactly zero).
	GatedResidualFraction float64
	// BreakEven is the break-even time (cycles) used to derive the per-event
	// overhead; it must match the simulated configuration.
	BreakEven int
}

// Default returns the calibrated model for a given break-even time.
func Default(breakEven int) Model {
	if breakEven <= 0 {
		panic(fmt.Sprintf("power: break-even must be positive, got %d", breakEven))
	}
	return Model{
		StaticPerCycle: [isa.NumClasses]float64{
			isa.INT:  1.0,
			isa.FP:   3.0,
			isa.SFU:  0.4,
			isa.LDST: 0.6,
		},
		DynamicPerInstr: [isa.NumClasses]float64{
			isa.INT:  6.0,
			isa.FP:   5.0,
			isa.SFU:  8.0,
			isa.LDST: 6.0,
		},
		GatedResidualFraction: 0.03,
		BreakEven:             breakEven,
	}
}

// EventOverhead returns the energy charged per gating event for a class:
// by the definition of break-even time, the overhead of toggling the sleep
// transistor equals the leakage saved over BET cycles.
func (m *Model) EventOverhead(c isa.Class) float64 {
	return float64(m.BreakEven) * m.StaticPerCycle[c]
}

// Breakdown is the energy decomposition of one unit class over a run,
// mirroring the stacked bars of paper Figure 1b.
type Breakdown struct {
	Class    isa.Class
	Static   float64 // leakage actually consumed (powered + gated residual)
	Dynamic  float64 // switching energy of executed instructions
	Overhead float64 // sleep-transistor toggle energy

	// StaticBaseline is what leakage would have been with no gating at all
	// (every domain powered every cycle) — the normalization denominator of
	// paper Figure 9.
	StaticBaseline float64
}

// Total returns consumed energy including gating overhead.
func (b Breakdown) Total() float64 { return b.Static + b.Dynamic + b.Overhead }

// BaselineTotal returns what the unit would have consumed with no gating.
func (b Breakdown) BaselineTotal() float64 { return b.StaticBaseline + b.Dynamic }

// StaticSavings returns the paper's Figure 9 metric: the fraction of baseline
// static energy saved net of gating overhead. Negative values mean gating
// overhead exceeded the leakage saved (paper: backprop/cutcp/lavaMD/NN under
// conventional gating).
func (b Breakdown) StaticSavings() float64 {
	if b.StaticBaseline == 0 {
		return 0
	}
	return (b.StaticBaseline - b.Static - b.Overhead) / b.StaticBaseline
}

// Analyze computes the energy breakdown of one unit class from a simulation
// report, normalized against the run's own length (self-normalization).
// Figure-accurate savings must use AnalyzeAgainst with the no-gating
// baseline run instead: the paper normalizes to the baseline's energy, so a
// technique that slows the program down pays for the extra static energy its
// longer run leaks — the effect that separates Naive Blackout from
// Coordinated Blackout in Figure 9.
//
// A nil report yields a zero Breakdown (with the class set), and a zero-cycle
// run yields all-zero energies; every derived ratio (StaticSavings, the
// Fraction* methods) is then 0, never NaN, so aggregation over a suite that
// contains an empty or failed run degrades gracefully instead of poisoning
// the mean.
func (m *Model) Analyze(r *sim.Report, c isa.Class) Breakdown {
	if r == nil {
		return Breakdown{Class: c}
	}
	return m.analyze(r, c, float64(r.Domains[c].CellCycles()))
}

// AnalyzeAgainst computes the breakdown of one unit class with the static
// baseline taken from the no-gating baseline run of the same benchmark.
// Like Analyze it is total: nil or zero-cycle reports on either side produce
// finite zero-valued breakdowns rather than NaNs.
func (m *Model) AnalyzeAgainst(r, baseline *sim.Report, c isa.Class) Breakdown {
	if r == nil {
		return Breakdown{Class: c}
	}
	var baseCells float64
	if baseline != nil {
		baseCells = float64(baseline.Domains[c].CellCycles())
	}
	return m.analyze(r, c, baseCells)
}

func (m *Model) analyze(r *sim.Report, c isa.Class, baselineCellCycles float64) Breakdown {
	d := r.Domains[c]
	ps := m.StaticPerCycle[c]
	b := Breakdown{Class: c}
	b.Static = float64(d.PoweredCycles)*ps + float64(d.GatedCycles)*ps*m.GatedResidualFraction
	b.Dynamic = float64(d.IssuedInstrs) * m.DynamicPerInstr[c]
	b.Overhead = float64(d.GatingEvents) * m.EventOverhead(c)
	b.StaticBaseline = baselineCellCycles * ps
	return b
}
