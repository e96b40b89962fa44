package mem

import (
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/stats"
)

func BenchmarkCacheAccessHit(b *testing.B) {
	c := NewCache(32, 4)
	for i := 0; i < 64; i++ {
		c.Access(Line(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(Line(i & 63))
	}
}

func BenchmarkCacheAccessStreaming(b *testing.B) {
	c := NewCache(32, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(Line(i))
	}
}

func BenchmarkCoalescerRandom(b *testing.B) {
	rng := stats.NewSplitMix64(1)
	var dst []Line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendTransactions(dst[:0], isa.PatternRandom, 0, uint64(i), 4096, rng)
	}
}

func BenchmarkGlobalAccess(b *testing.B) {
	cfg := config.GTX480()
	p := NewSMPort(cfg, NewGPUMem(cfg))
	lines := []Line{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Expire(int64(i) * 1000)
		p.GlobalAccess(int64(i)*1000, lines)
	}
}
