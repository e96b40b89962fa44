package sim

import (
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// TestMaxCyclesNeverOvershot pins the report-level cap invariant: no run may
// report Cycles > MaxCycles, even when an idle fast-forward's next-wake
// target lies past the cap. The cap values are deliberately scattered so
// some land inside long idle stretches (where the closed-form advance would
// jump past them if unclamped).
func TestMaxCyclesNeverOvershot(t *testing.T) {
	for _, bench := range []string{"hotspot", "bfs", "mri", "nw", "kmeans"} {
		k := kernels.MustBenchmark(bench).Scale(0.1)
		for _, mc := range []int{50, 100, 500, 1000, 2000, 5000} {
			cfg := config.Small()
			cfg.Gating = config.GateCoordBlackout
			cfg.Scheduler = config.SchedGATES
			cfg.MaxCycles = mc
			gpu, err := NewGPU(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			r := gpu.Run()
			if r.Cycles > int64(mc) {
				t.Errorf("%s mc=%d: Cycles=%d ranOut=%v overshoots the cap", bench, mc, r.Cycles, r.RanOut)
			}
			if r.RanOut && r.Cycles != int64(mc) {
				t.Errorf("%s mc=%d: ran out at %d, want the cap exactly", bench, mc, r.Cycles)
			}
		}
	}
}

// TestMaxCyclesClampsFastForwardJump forces the scenario the clamp exists
// for: a device that goes fully idle with retirements scheduled past the cap,
// so every SM's next-wake exceeds MaxCycles. The run must report exactly the
// cap. A long-latency memory stall right before a small cap produces the
// shape deterministically: bfs at small scale stalls all warps on DRAM within
// the first tens of cycles, and the fill cycle (DRAM latency plus queueing)
// lies far beyond caps placed inside the stall window.
func TestMaxCyclesClampsFastForwardJump(t *testing.T) {
	k := kernels.MustBenchmark("bfs").Scale(0.05)
	cfg := config.Small()
	cfg.DRAMLatency = 4000 // every miss's wake target dwarfs the caps below
	for _, mc := range []int{40, 60, 90, 130} {
		c := cfg
		c.MaxCycles = mc
		gpu, err := NewGPU(c, k)
		if err != nil {
			t.Fatal(err)
		}
		r := gpu.Run()
		if !r.RanOut {
			t.Fatalf("mc=%d: expected the cap to hit (cycles=%d)", mc, r.Cycles)
		}
		if r.Cycles != int64(mc) {
			t.Errorf("mc=%d: Cycles=%d, want exactly the cap", mc, r.Cycles)
		}
	}
}
