package gating

import (
	"testing"

	"warpedgates/internal/config"
)

func BenchmarkControllerTick(b *testing.B) {
	c := NewController(config.GateCoordBlackout, FixedIdleDetect(5), 14, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		busy := i%7 < 2 && c.State() == StActive
		if i%11 == 0 {
			c.RequestIssue()
		}
		c.Tick(busy)
	}
}

func BenchmarkCoordinatorPreTick(b *testing.B) {
	x := NewController(config.GateCoordBlackout, FixedIdleDetect(5), 14, 3)
	y := NewController(config.GateCoordBlackout, FixedIdleDetect(5), 14, 3)
	co := NewCoordinator(config.GateCoordBlackout, x, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co.PreTick(i % 5)
		x.Tick(false)
		y.Tick(i%3 == 0 && y.State() == StActive)
	}
}

func BenchmarkAdaptiveTick(b *testing.B) {
	cfg := config.GTX480()
	cfg.AdaptiveIdleDetect = true
	a := NewAdaptiveIdleDetect(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Tick(i % 2)
	}
}
