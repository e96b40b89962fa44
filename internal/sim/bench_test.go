package sim

import (
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// BenchmarkSMCycle measures the cost of one simulated SM cycle under the
// full Warped Gates configuration — the number that bounds how fast the
// figure harness can run.
func BenchmarkSMCycle(b *testing.B) {
	cfg := config.GTX480()
	cfg.NumSMs = 1
	cfg.Scheduler = config.SchedGATES
	cfg.Gating = config.GateCoordBlackout
	cfg.AdaptiveIdleDetect = true
	cfg.MaxCycles = 1 << 30
	k := kernels.MustBenchmark("hotspot").Scale(100) // effectively endless
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		b.Fatal(err)
	}
	sm := gpu.SMs()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.step(int64(i))
	}
}

// BenchmarkMatrix runs representative benchmark × technique cells as named
// sub-benchmarks, so `go test -bench Matrix -count N | benchstat` compares
// apples to apples across commits (one row per cell). Each iteration is a
// complete small-machine run; the per-cycle cost is reported alongside.
func BenchmarkMatrix(b *testing.B) {
	techs := []struct {
		name    string
		apply   func(c *config.Config)
		stepped bool // run on the stepped reference loop
	}{
		{"Baseline", func(c *config.Config) {
			c.Scheduler = config.SchedTwoLevel
			c.Gating = config.GateNone
		}, false},
		{"WarpedGates", func(c *config.Config) {
			c.Scheduler = config.SchedGATES
			c.Gating = config.GateCoordBlackout
			c.AdaptiveIdleDetect = true
		}, false},
		{"WarpedGatesStepped", func(c *config.Config) {
			c.Scheduler = config.SchedGATES
			c.Gating = config.GateCoordBlackout
			c.AdaptiveIdleDetect = true
		}, true},
	}
	for _, bench := range []string{"hotspot", "bfs"} {
		for _, tech := range techs {
			b.Run(bench+"/"+tech.name, func(b *testing.B) {
				cfg := config.Small()
				tech.apply(&cfg)
				k := kernels.MustBenchmark(bench).Scale(0.1)
				var cycles int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					gpu, err := newGPU(cfg, k, tech.stepped)
					if err != nil {
						b.Fatal(err)
					}
					cycles += gpu.Run().Cycles
				}
				if cycles > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
				}
			})
		}
	}
}

// BenchmarkFullRunSmall measures a complete small-machine simulation.
func BenchmarkFullRunSmall(b *testing.B) {
	cfg := config.Small()
	k := kernels.MustBenchmark("nw").Scale(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpu, err := NewGPU(cfg, k)
		if err != nil {
			b.Fatal(err)
		}
		gpu.Run()
	}
}

// BenchmarkDecodeReport decodes one stored report of a GTX480 run (hotspot
// at scale 0.1 under Warped Gates), the per-entry work of a store read; run
// with -benchmem, its B/op and allocs/op are what a decoded report costs.
func BenchmarkDecodeReport(b *testing.B) {
	cfg := config.GTX480()
	cfg.Scheduler = config.SchedGATES
	cfg.Gating = config.GateCoordBlackout
	cfg.AdaptiveIdleDetect = true
	gpu, err := NewGPU(cfg, kernels.MustBenchmark("hotspot").Scale(0.1))
	if err != nil {
		b.Fatal(err)
	}
	data, err := EncodeReport(gpu.Run())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeReport(data); err != nil {
			b.Fatal(err)
		}
	}
}
