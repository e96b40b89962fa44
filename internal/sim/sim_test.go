package sim

import (
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/stats"
)

// smallCfg returns a fast configuration for integration tests.
func smallCfg() config.Config {
	c := config.Small()
	c.MaxCycles = 200000
	return c
}

// runBench simulates one benchmark at reduced scale under the given
// scheduler/gating combination.
func runBench(t *testing.T, bench string, sched config.SchedulerKind, gate config.GatingKind) *Report {
	t.Helper()
	cfg := smallCfg()
	cfg.Scheduler = sched
	cfg.Gating = gate
	k := kernels.MustBenchmark(bench).Scale(0.25)
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	rep := gpu.Run()
	if rep.RanOut {
		t.Fatalf("%s did not drain in %d cycles", bench, cfg.MaxCycles)
	}
	return rep
}

func TestGPUValidatesInputs(t *testing.T) {
	cfg := smallCfg()
	cfg.NumSMs = 0
	if _, err := NewGPU(cfg, kernels.MustBenchmark("hotspot")); err == nil {
		t.Fatal("invalid config accepted")
	}
	bad := &kernels.Kernel{Name: ""}
	if _, err := NewGPU(smallCfg(), bad); err == nil {
		t.Fatal("invalid kernel accepted")
	}
}

func TestWorkloadDrains(t *testing.T) {
	rep := runBench(t, "hotspot", config.SchedTwoLevel, config.GateNone)
	if rep.IssuedTotal == 0 {
		t.Fatal("no instructions issued")
	}
	k := kernels.MustBenchmark("hotspot").Scale(0.25)
	wantCTAs := k.CTAsPerSM * smallCfg().NumSMs
	if rep.CTAsCompleted != wantCTAs {
		t.Fatalf("completed %d CTAs, want %d", rep.CTAsCompleted, wantCTAs)
	}
	// Total issued instructions must equal the launched work exactly
	// (concurrency clamping changes residency, never total work).
	want := uint64(k.TotalWarpInstructions()) * uint64(k.WarpsPerCTA) * uint64(wantCTAs)
	if rep.IssuedTotal != want {
		t.Fatalf("issued %d, want %d", rep.IssuedTotal, want)
	}
}

func TestDeterminism(t *testing.T) {
	a := runBench(t, "srad", config.SchedGATES, config.GateCoordBlackout)
	b := runBench(t, "srad", config.SchedGATES, config.GateCoordBlackout)
	if a.Cycles != b.Cycles || a.IssuedTotal != b.IssuedTotal {
		t.Fatalf("non-deterministic run: %d/%d vs %d/%d cycles/instrs",
			a.Cycles, a.IssuedTotal, b.Cycles, b.IssuedTotal)
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if a.Domains[c].GatingEvents != b.Domains[c].GatingEvents ||
			a.Domains[c].IdleCycles != b.Domains[c].IdleCycles {
			t.Fatalf("class %s stats differ across identical runs", c)
		}
	}
}

func TestDynamicWorkInvariantAcrossTechniques(t *testing.T) {
	// The paper (§7.3): "The amount of work done ... is constant per
	// workload, irrespective of power gating." Issued instruction counts
	// must match across schedulers and gating policies.
	base := runBench(t, "kmeans", config.SchedTwoLevel, config.GateNone)
	for _, combo := range []struct {
		s config.SchedulerKind
		g config.GatingKind
	}{
		{config.SchedTwoLevel, config.GateConventional},
		{config.SchedGATES, config.GateConventional},
		{config.SchedGATES, config.GateNaiveBlackout},
		{config.SchedGATES, config.GateCoordBlackout},
		{config.SchedGATES, config.GateNone},
	} {
		rep := runBench(t, "kmeans", combo.s, combo.g)
		if rep.IssuedTotal != base.IssuedTotal {
			t.Errorf("%v/%v issued %d, baseline %d", combo.s, combo.g,
				rep.IssuedTotal, base.IssuedTotal)
		}
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			if rep.IssuedByClass[c] != base.IssuedByClass[c] {
				t.Errorf("%v/%v class %s issued %d, baseline %d", combo.s, combo.g,
					c, rep.IssuedByClass[c], base.IssuedByClass[c])
			}
		}
	}
}

func TestGatingDisabledHasNoGatingActivity(t *testing.T) {
	rep := runBench(t, "hotspot", config.SchedTwoLevel, config.GateNone)
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		d := rep.Domains[c]
		if d.GatingEvents != 0 || d.Wakeups != 0 || d.GatedCycles != 0 {
			t.Fatalf("class %s has gating activity with gating disabled", c)
		}
		if d.PoweredCycles != d.CellCycles() {
			t.Fatalf("class %s powered %d of %d cycles", c, d.PoweredCycles, d.CellCycles())
		}
	}
}

func TestCycleAccountingPartitions(t *testing.T) {
	for _, gate := range []config.GatingKind{config.GateConventional, config.GateCoordBlackout} {
		rep := runBench(t, "hotspot", config.SchedGATES, gate)
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			d := rep.Domains[c]
			if d.BusyCycles+d.IdleCycles != d.CellCycles() {
				t.Fatalf("%s busy+idle != total", c)
			}
			if d.PoweredCycles+d.GatedCycles != d.CellCycles() {
				t.Fatalf("%s powered+gated != total", c)
			}
			if d.UncompCycles+d.CompCycles != d.GatedCycles {
				t.Fatalf("%s uncomp+comp != gated", c)
			}
			// Idle-period histogram covers every idle cycle.
			if d.IdlePeriods.Sum() != d.IdleCycles {
				t.Fatalf("%s histogram sum %d != idle cycles %d",
					c, d.IdlePeriods.Sum(), d.IdleCycles)
			}
		}
	}
}

func TestBlackoutNeverWakesEarly(t *testing.T) {
	rep := runBench(t, "cutcp", config.SchedGATES, config.GateNaiveBlackout)
	for _, c := range []isa.Class{isa.INT, isa.FP} {
		if rep.Domains[c].NegativeEvents != 0 {
			t.Fatalf("%s blackout produced uncompensated wakeups", c)
		}
	}
}

func TestConventionalProducesNegativeEvents(t *testing.T) {
	// Conventional gating on a mixed workload wakes units before break-even
	// — the paper's core critique (Fig. 1b overhead component).
	rep := runBench(t, "hotspot", config.SchedTwoLevel, config.GateConventional)
	total := rep.Domains[isa.INT].NegativeEvents + rep.Domains[isa.FP].NegativeEvents
	if total == 0 {
		t.Fatal("conventional gating produced no early wakeups — implausible")
	}
}

func TestGATESIncreasesLongIdleRegions(t *testing.T) {
	// Paper Figure 3: GATES + Blackout moves idle periods into the
	// net-positive region relative to conventional gating.
	conv := runBench(t, "hotspot", config.SchedTwoLevel, config.GateConventional)
	bo := runBench(t, "hotspot", config.SchedGATES, config.GateNaiveBlackout)
	cfg := smallCfg()
	_, _, convPos := mergedIdle(conv).Regions3(cfg.IdleDetect, cfg.BreakEven)
	_, mid, boPos := mergedIdle(bo).Regions3(cfg.IdleDetect, cfg.BreakEven)
	if boPos <= convPos {
		t.Fatalf("blackout positive region %.3f not above conventional %.3f", boPos, convPos)
	}
	if mid != 0 {
		t.Fatalf("naive blackout middle region = %.4f, want exactly 0", mid)
	}
}

func TestBlackoutSavesMoreCompensatedCycles(t *testing.T) {
	conv := runBench(t, "hotspot", config.SchedTwoLevel, config.GateConventional)
	bo := runBench(t, "hotspot", config.SchedGATES, config.GateCoordBlackout)
	if bo.Domains[isa.INT].CompCycles <= conv.Domains[isa.INT].CompCycles {
		t.Fatalf("coordinated blackout compensated cycles (%d) not above conventional (%d)",
			bo.Domains[isa.INT].CompCycles, conv.Domains[isa.INT].CompCycles)
	}
}

func TestMaxCyclesStopsRun(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxCycles = 500
	gpu, err := NewGPU(cfg, kernels.MustBenchmark("hotspot"))
	if err != nil {
		t.Fatal(err)
	}
	rep := gpu.Run()
	if !rep.RanOut || rep.Cycles != 500 {
		t.Fatalf("MaxCycles not respected: ranOut=%v cycles=%d", rep.RanOut, rep.Cycles)
	}
}

func TestInstructionMixSumsToOne(t *testing.T) {
	rep := runBench(t, "srad", config.SchedTwoLevel, config.GateNone)
	mix := rep.InstructionMix()
	sum := 0.0
	for _, v := range mix {
		if v < 0 {
			t.Fatal("negative mix fraction")
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("mix sums to %v", sum)
	}
}

func TestIssueTracerObservesAllIssues(t *testing.T) {
	cfg := smallCfg()
	k := kernels.MustBenchmark("nw").Scale(0.25)
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	var traced uint64
	gpu.SetIssueTracer(func(smID int, cycle int64, warpIdx int, class isa.Class, cluster int) {
		traced++
	})
	rep := gpu.Run()
	if traced != rep.IssuedTotal {
		t.Fatalf("tracer saw %d issues, report says %d", traced, rep.IssuedTotal)
	}
}

func TestActiveWarpStatsBounded(t *testing.T) {
	rep := runBench(t, "bfs", config.SchedTwoLevel, config.GateNone)
	if rep.ActiveWarpMax > smallCfg().MaxWarpsPerSM {
		t.Fatalf("max active warps %d exceeds SM capacity", rep.ActiveWarpMax)
	}
	if rep.ActiveWarpAvg < 0 || rep.ActiveWarpAvg > float64(rep.ActiveWarpMax) {
		t.Fatalf("avg active warps %v outside [0, max]", rep.ActiveWarpAvg)
	}
}

// mergedIdle merges INT and FP idle histograms of a report.
func mergedIdle(r *Report) *stats.Histogram {
	m := stats.NewHistogram()
	m.Merge(r.Domains[isa.INT].IdlePeriods)
	m.Merge(r.Domains[isa.FP].IdlePeriods)
	return m
}
