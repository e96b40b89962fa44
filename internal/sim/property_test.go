package sim

import (
	"testing"
	"testing/quick"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
)

// TestSimulatorInvariantsUnderRandomConfigs drives short full-pipeline runs
// under randomized policy and gating-parameter combinations and checks the
// global invariants that must hold in every legal configuration.
func TestSimulatorInvariantsUnderRandomConfigs(t *testing.T) {
	benchNames := []string{"nw", "hotspot", "mri", "bfs"}
	f := func(benchRaw, schedRaw, gateRaw, idRaw, betRaw, wakeRaw uint8, adaptive bool) bool {
		cfg := config.Small()
		cfg.Scheduler = []config.SchedulerKind{
			config.SchedTwoLevel, config.SchedGATES,
		}[int(schedRaw)%2]
		cfg.Gating = []config.GatingKind{
			config.GateNone, config.GateConventional,
			config.GateNaiveBlackout, config.GateCoordBlackout,
		}[int(gateRaw)%4]
		cfg.IdleDetect = int(idRaw % 12)
		cfg.BreakEven = 1 + int(betRaw%30)
		cfg.WakeupDelay = int(wakeRaw % 10)
		cfg.AdaptiveIdleDetect = adaptive && cfg.Gating == config.GateCoordBlackout
		cfg.MaxCycles = 30000

		bench := benchNames[int(benchRaw)%len(benchNames)]
		k := kernels.MustBenchmark(bench).Scale(0.08)
		gpu, err := NewGPU(cfg, k)
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}
		rep := gpu.Run()

		// Invariant: the workload drains at this scale.
		if rep.RanOut {
			t.Logf("%s did not drain under %v/%v", bench, cfg.Scheduler, cfg.Gating)
			return false
		}
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			d := rep.Domains[c]
			// Cycle accounting partitions.
			if d.BusyCycles+d.IdleCycles != d.CellCycles() {
				return false
			}
			if d.PoweredCycles+d.GatedCycles != d.CellCycles() {
				return false
			}
			if d.UncompCycles+d.CompCycles != d.GatedCycles {
				return false
			}
			// The idle histogram accounts for every idle cycle.
			if d.IdlePeriods.Sum() != d.IdleCycles {
				return false
			}
			// No gating activity without a gating policy.
			if cfg.Gating == config.GateNone && (d.GatingEvents != 0 || d.GatedCycles != 0) {
				return false
			}
			// Blackout policies never wake uncompensated (INT/FP domains).
			if (cfg.Gating == config.GateNaiveBlackout || cfg.Gating == config.GateCoordBlackout) &&
				(c == isa.INT || c == isa.FP) && d.NegativeEvents != 0 {
				return false
			}
			// Wakeups require gating events (a unit can end the run gated,
			// so wakeups <= gating events).
			if d.Wakeups > d.GatingEvents {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkInvariantUnderRandomGatingParams checks the paper's §7.3 dynamic
// work invariant across random gating parameters: the issued instruction
// counts depend only on the workload, never on gating.
func TestWorkInvariantUnderRandomGatingParams(t *testing.T) {
	cfg := config.Small()
	cfg.MaxCycles = 60000
	k := kernels.MustBenchmark("kmeans").Scale(0.1)
	base, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Run().IssuedByClass

	f := func(idRaw, betRaw, wakeRaw uint8) bool {
		c := cfg
		c.Scheduler = config.SchedGATES
		c.Gating = config.GateCoordBlackout
		c.IdleDetect = int(idRaw % 12)
		c.BreakEven = 1 + int(betRaw%30)
		c.WakeupDelay = int(wakeRaw % 10)
		gpu, err := NewGPU(c, k)
		if err != nil {
			return false
		}
		rep := gpu.Run()
		if rep.RanOut {
			return false
		}
		return rep.IssuedByClass == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
