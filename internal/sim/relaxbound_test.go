package sim

import (
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// TestRelaxedModeCorpusErrorBound sweeps benchmark × scheduler/gating combos
// at the largest legal relaxation windows and measures the cycle-count error
// against the exact engine; the measured corpus-wide bound is recorded in
// EXPERIMENTS.md. With the bank phase's cycle-ordered merge the observed
// error is zero on the shipped machine configs — the shortest device fill
// (L2HitLatency = 120) outruns any legal window (R <= L1HitLatency = 28), so
// no completion ever lands inside the window that staged it and relaxed runs
// reproduce the serial device order op for op. The assertion leaves headroom
// (0.5%) for future machine configs where a fill could return in-window; run
// with -v for the per-cell table.
//
// The last cell is a regression case: bfs at scale 0.1 under GATES with
// Coordinated Blackout once ran 28334 relaxed cycles against 11999 exact,
// because an SM jumped past writebacks its window had staged but not yet
// booked, and each then waited a full retire-ring wrap.
func TestRelaxedModeCorpusErrorBound(t *testing.T) {
	type cell struct {
		bench    string
		scale    float64
		sched    config.SchedulerKind
		gate     config.GatingKind
		adaptive bool
	}
	var cells []cell
	for _, bench := range []string{"nw", "hotspot", "mri", "bfs", "kmeans"} {
		cells = append(cells,
			cell{bench, 0.08, config.SchedLRR, config.GateNone, false},
			cell{bench, 0.08, config.SchedTwoLevel, config.GateConventional, false},
			cell{bench, 0.08, config.SchedGATES, config.GateCoordBlackout, true})
	}
	cells = append(cells, cell{"bfs", 0.1, config.SchedGATES, config.GateCoordBlackout, false})
	var worst float64
	for _, c := range cells {
		k := kernels.MustBenchmark(c.bench).Scale(c.scale)
		cfg := config.Small()
		cfg.NumSMs = 4
		cfg.Scheduler = c.sched
		cfg.Gating = c.gate
		cfg.AdaptiveIdleDetect = c.adaptive
		cfg.MaxCycles = 400000
		cfg.IntraRunWorkers = 1
		exactRep, _, _ := runDigests(t, cfg, k)
		for _, relax := range []int{8, 28} {
			rcfg := cfg
			rcfg.EpochRelaxedCycles = relax
			rep, _, _ := runDigests(t, rcfg, k)
			if rep.RanOut || exactRep.RanOut {
				t.Fatalf("%+v ran out", c)
			}
			diff := float64(rep.Cycles-exactRep.Cycles) / float64(exactRep.Cycles)
			if diff < 0 {
				diff = -diff
			}
			if diff > worst {
				worst = diff
			}
			t.Logf("%s@%g sched=%d gate=%d R=%d: exact=%d relaxed=%d err=%.4f%%",
				c.bench, c.scale, c.sched, c.gate, relax, exactRep.Cycles, rep.Cycles, diff*100)
		}
	}
	t.Logf("worst |dCycles|/Cycles = %.4f%%", worst*100)
	if worst > 0.005 {
		t.Errorf("relaxed-mode corpus error %.4f%% exceeds the 0.5%% bound", worst*100)
	}
}
