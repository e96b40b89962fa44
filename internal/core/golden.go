package core

import (
	"fmt"
	"strconv"
	"strings"

	"warpedgates/internal/isa"
	"warpedgates/internal/sim"
)

// FingerprintReport renders a canonical single-line fingerprint of a report:
// every counter the paper's figures derive from, in a fixed order. Two
// reports fingerprint equal iff the simulations were observably identical, so
// the golden corpus and the metamorphic equalities (seed determinism,
// parallel-vs-serial, inert-gating neutrality) all compare these strings.
// The encoding is integer-dominated; the few float fields use
// strconv.FormatFloat 'g'/-1, the shortest exact round-trip form, so the
// fingerprint is byte-stable across runs, platforms and worker counts.
func FingerprintReport(r *sim.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d ranout=%t issued=%d", r.Cycles, r.RanOut, r.IssuedTotal)
	fmt.Fprintf(&b, " byclass=%d/%d/%d/%d",
		r.IssuedByClass[isa.INT], r.IssuedByClass[isa.FP],
		r.IssuedByClass[isa.SFU], r.IssuedByClass[isa.LDST])
	fmt.Fprintf(&b, " stalls=%d/%d ctas=%d warpmax=%d",
		r.IssueStallsMem, r.IssueStallsGate, r.CTAsCompleted, r.ActiveWarpMax)
	fmt.Fprintf(&b, " warpavg=%s l1miss=%s", fmtFloat(r.ActiveWarpAvg), fmtFloat(r.L1MissRate))
	fmt.Fprintf(&b, " l2=%d/%d/%d/%d", r.L2Stats[0], r.L2Stats[1], r.L2Stats[2], r.L2Stats[3])
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		d := &r.Domains[c]
		fmt.Fprintf(&b, " %s=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
			strings.ToLower(c.String()),
			d.BusyCycles, d.IdleCycles, d.PoweredCycles, d.GatedCycles,
			d.UncompCycles, d.CompCycles, d.GatingEvents, d.Wakeups,
			d.NegativeEvents, d.CriticalWakeups, d.DeniedWakeups, d.IssuedInstrs)
		h := d.IdlePeriods
		fmt.Fprintf(&b, ",h%d:%d:%d:%d", h.Total(), h.Sum(), h.Min(), h.Max())
	}
	return b.String()
}

// fmtFloat renders v in its shortest exact round-trip decimal form.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MatrixFingerprint simulates every bench × technique cell on r (through the
// parallel runner, so duplicate cells are free and workers are saturated) and
// renders one "<bench> <technique> <fingerprint>" line per cell in (bench,
// technique) order. It is the golden corpus's payload and the byte-stability
// oracle: any -j produces identical bytes.
func MatrixFingerprint(r *Runner, benches []string, techs []Technique) (string, error) {
	reps, err := r.RunMany(TechniqueJobs(r.Base, benches, techs...))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	i := 0
	for _, bench := range benches {
		for _, t := range techs {
			fmt.Fprintf(&b, "%s %s %s\n", bench, t, FingerprintReport(reps[i]))
			i++
		}
	}
	return b.String(), nil
}
