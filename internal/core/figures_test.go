package core

import (
	"strings"
	"testing"

	"warpedgates/internal/isa"
)

// figRunner is a shared small-scale runner so the figure tests reuse cached
// simulations across test functions within the package test binary.
var figRunner = testRunner()

func TestRunFig1b(t *testing.T) {
	res, err := RunFig1b(figRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bars) != 4 {
		t.Fatalf("bars = %d, want 4 (Baseline/ConvPG x INT/FP)", len(res.Bars))
	}
	var baseINT, baseFP, convINT EnergySplit
	for _, b := range res.Bars {
		switch {
		case b.Technique == Baseline && b.Class == isa.INT:
			baseINT = b
		case b.Technique == Baseline && b.Class == isa.FP:
			baseFP = b
		case b.Technique == ConvPG && b.Class == isa.INT:
			convINT = b
		}
	}
	// Baseline bars have no gating overhead and total 1 by construction.
	if baseINT.Overhead != 0 || baseFP.Overhead != 0 {
		t.Fatal("baseline bars should have zero overhead")
	}
	if baseINT.Total() < 0.999 || baseINT.Total() > 1.001 {
		t.Fatalf("baseline INT total = %v, want 1", baseINT.Total())
	}
	// Paper Fig. 1b: FP static share far above INT static share.
	if baseFP.Static <= baseINT.Static {
		t.Fatalf("FP static share (%v) should exceed INT (%v)", baseFP.Static, baseINT.Static)
	}
	// Conventional gating reduces static energy but adds overhead.
	if convINT.Static >= baseINT.Static {
		t.Fatal("ConvPG did not reduce INT static energy")
	}
	if convINT.Overhead <= 0 {
		t.Fatal("ConvPG bar should carry gating overhead")
	}
	if !strings.Contains(res.Table.String(), "Fig. 1b") {
		t.Fatal("table title missing")
	}
}

func TestRunFig3(t *testing.T) {
	res, err := RunFig3(figRunner, "hotspot")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		sum := row.Wasted + row.Negative + row.Positive
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s regions sum to %v", row.Technique, sum)
		}
	}
	conv, gates, blackout := res.Rows[0], res.Rows[1], res.Rows[2]
	// Paper Fig. 3 qualitative shape: GATES moves idle periods out of the
	// wasted region; Blackout empties the middle region exactly.
	if gates.Wasted >= conv.Wasted {
		t.Errorf("GATES wasted region %.3f not below ConvPG %.3f", gates.Wasted, conv.Wasted)
	}
	if blackout.Negative != 0 {
		t.Errorf("blackout middle region = %v, want 0", blackout.Negative)
	}
	if blackout.Positive <= conv.Positive {
		t.Errorf("blackout positive region %.3f not above ConvPG %.3f", blackout.Positive, conv.Positive)
	}
}

func TestRunFig3UnknownBenchmark(t *testing.T) {
	if _, err := RunFig3(figRunner, "nosuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunFig4(t *testing.T) {
	res, err := RunFig4()
	if err != nil {
		t.Fatal(err)
	}
	// Both schedules issue all 12 instructions.
	if len(res.TwoLevel.Issues) != 12 || len(res.GATES.Issues) != 12 {
		t.Fatalf("issue counts = %d/%d, want 12", len(res.TwoLevel.Issues), len(res.GATES.Issues))
	}
	// The two-level schedule issues strictly in queue order, interleaving
	// types; GATES issues every INT before any FP (paper Fig. 4).
	sawFP := false
	for _, is := range res.GATES.Issues {
		if is.Class == isa.FP {
			sawFP = true
		} else if sawFP {
			t.Fatal("GATES issued INT after FP — clustering broken")
		}
	}
	interleaved := false
	sawFP = false
	for _, is := range res.TwoLevel.Issues {
		if is.Class == isa.FP {
			sawFP = true
		} else if sawFP {
			interleaved = true
		}
	}
	if !interleaved {
		t.Fatal("two-level schedule did not interleave types")
	}
	// GATES coalesces the FP pipe's idle cycles into fewer, longer runs.
	if len(res.GATES.IdlePeriodsFP) >= len(res.TwoLevel.IdlePeriodsFP) &&
		maxOf(res.GATES.IdlePeriodsFP) <= maxOf(res.TwoLevel.IdlePeriodsFP) {
		t.Fatalf("GATES FP idle runs %v not coalesced vs two-level %v",
			res.GATES.IdlePeriodsFP, res.TwoLevel.IdlePeriodsFP)
	}
}

func maxOf(vs []int) int {
	m := 0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

func TestRunFig5(t *testing.T) {
	a, err := RunFig5a(figRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 18 {
		t.Fatalf("fig5a rows = %d", len(a.Rows))
	}
	for _, row := range a.Rows {
		sum := 0.0
		for _, v := range row.Mix {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s mix sums to %v", row.Benchmark, sum)
		}
	}
	b, err := RunFig5b(figRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 18 {
		t.Fatalf("fig5b rows = %d", len(b.Rows))
	}
	for _, row := range b.Rows {
		if row.Average > float64(row.Max) || row.Max <= 0 {
			t.Fatalf("%s occupancy avg %v max %d inconsistent", row.Benchmark, row.Average, row.Max)
		}
	}
}

func TestFig5bOccupancySplitMatchesPaper(t *testing.T) {
	// The paper's Fig. 5b divides the suite into high-occupancy benchmarks
	// (srad, lbm, backprop at the top) and low-occupancy ones (nw, gaussian,
	// NN, LIB, WP under ten average warps). The synthetic suite must keep
	// that split.
	res, err := RunFig5b(figRunner)
	if err != nil {
		t.Fatal(err)
	}
	avg := map[string]float64{}
	for _, row := range res.Rows {
		avg[row.Benchmark] = row.Average
	}
	// Compare group means: the small test machine caps resident warps, so
	// individual high-occupancy benchmarks can be truncated, but the groups
	// must stay separated.
	groupMean := func(names []string) float64 {
		sum := 0.0
		for _, n := range names {
			sum += avg[n]
		}
		return sum / float64(len(names))
	}
	high := groupMean([]string{"srad", "lbm", "backprop", "sgemm"})
	low := groupMean([]string{"nw", "gaussian", "NN", "LIB", "WP"})
	if high <= 1.5*low {
		t.Errorf("occupancy split broken: high group %.1f not well above low group %.1f", high, low)
	}
	for _, l := range []string{"nw", "gaussian", "NN", "LIB", "WP"} {
		if avg[l] >= 10 {
			t.Errorf("%s average occupancy %.1f, paper group is under 10", l, avg[l])
		}
	}
}

func TestRunFig9(t *testing.T) {
	intRes, err := RunFig9(figRunner, isa.INT)
	if err != nil {
		t.Fatal(err)
	}
	fpRes, err := RunFig9(figRunner, isa.FP)
	if err != nil {
		t.Fatal(err)
	}
	if len(intRes.Rows) != 18 {
		t.Fatalf("INT rows = %d", len(intRes.Rows))
	}
	// FP panel excludes integer-only benchmarks (lavaMD).
	if len(fpRes.Rows) != 17 {
		t.Fatalf("FP rows = %d, want 17", len(fpRes.Rows))
	}
	for _, row := range fpRes.Rows {
		if row.Benchmark == "lavaMD" {
			t.Fatal("integer-only benchmark in FP panel")
		}
	}
	// Paper's headline orderings: blackout beats conventional on average;
	// FP savings exceed INT savings for the full proposal.
	if intRes.Average[CoordBlackout] <= intRes.Average[ConvPG] {
		t.Errorf("Coordinated Blackout INT average %.3f not above ConvPG %.3f",
			intRes.Average[CoordBlackout], intRes.Average[ConvPG])
	}
	if fpRes.Average[WarpedGates] <= intRes.Average[WarpedGates] {
		t.Errorf("FP savings %.3f should exceed INT savings %.3f",
			fpRes.Average[WarpedGates], intRes.Average[WarpedGates])
	}
	if _, err := RunFig9(figRunner, isa.SFU); err == nil {
		t.Fatal("Fig. 9 accepted a non-CUDA-core class")
	}
}

func TestRunFig10(t *testing.T) {
	res, err := RunFig10(figRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 18 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, tech := range GatedTechniques() {
		g := res.Geomean[tech]
		if g <= 0.5 || g > 1.05 {
			t.Fatalf("%s geomean performance %v implausible", tech, g)
		}
	}
	// Naive Blackout is the most aggressive policy; Warped Gates must not
	// be slower than it (paper Fig. 10).
	if res.Geomean[WarpedGates] < res.Geomean[NaiveBlackout] {
		t.Errorf("WarpedGates %.3f slower than NaiveBlackout %.3f",
			res.Geomean[WarpedGates], res.Geomean[NaiveBlackout])
	}
}

func TestRunHWOverhead(t *testing.T) {
	hw := RunHWOverhead(2)
	if hw.Overhead.AreaFraction <= 0 || hw.Overhead.AreaFraction > 0.001 {
		t.Fatalf("area fraction %v implausible", hw.Overhead.AreaFraction)
	}
	if !strings.Contains(hw.Table.String(), "Hardware overhead") {
		t.Fatal("hw table title missing")
	}
}
