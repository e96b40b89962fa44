package gating

import (
	"testing"

	"warpedgates/internal/config"
)

func adaptiveCfg() config.Config {
	c := config.GTX480()
	c.AdaptiveIdleDetect = true
	return c
}

func TestAdaptiveDisabledStaysPinned(t *testing.T) {
	c := config.GTX480()
	c.AdaptiveIdleDetect = false
	a := NewAdaptiveIdleDetect(c)
	for i := 0; i < 10000; i++ {
		a.Tick(100)
	}
	if a.Value() != c.IdleDetect {
		t.Fatalf("disabled adaptation moved the window to %d", a.Value())
	}
}

func TestAdaptiveIncrementsOnCriticalStorm(t *testing.T) {
	a := NewAdaptiveIdleDetect(adaptiveCfg())
	start := a.Value()
	// One epoch with more than threshold (5) critical wakeups.
	for i := 0; i < 1000; i++ {
		crit := 0
		if i < 6 {
			crit = 1
		}
		a.Tick(crit)
	}
	if a.Value() != start+1 {
		t.Fatalf("window = %d, want %d after critical storm", a.Value(), start+1)
	}
}

func TestAdaptiveExactThresholdDoesNotIncrement(t *testing.T) {
	// The paper's rule is "greater than a defined threshold".
	a := NewAdaptiveIdleDetect(adaptiveCfg())
	start := a.Value()
	for i := 0; i < 1000; i++ {
		crit := 0
		if i < 5 {
			crit = 1
		}
		a.Tick(crit)
	}
	if a.Value() != start {
		t.Fatalf("window moved to %d on exactly-threshold epoch", a.Value())
	}
}

func TestAdaptiveBoundedAbove(t *testing.T) {
	cfg := adaptiveCfg()
	a := NewAdaptiveIdleDetect(cfg)
	// Hammer criticals for many epochs.
	for e := 0; e < 50; e++ {
		for i := 0; i < 1000; i++ {
			a.Tick(1)
		}
	}
	if a.Value() != cfg.IdleDetectMax {
		t.Fatalf("window = %d, want capped at %d", a.Value(), cfg.IdleDetectMax)
	}
}

func TestAdaptiveDecrementsAfterQuietEpochs(t *testing.T) {
	cfg := adaptiveCfg()
	a := NewAdaptiveIdleDetect(cfg)
	// Push the window up twice.
	for e := 0; e < 2; e++ {
		for i := 0; i < 1000; i++ {
			a.Tick(1)
		}
	}
	up := a.Value()
	if up <= cfg.IdleDetectMin {
		t.Fatalf("setup failed, window = %d", up)
	}
	// Four quiet epochs trigger exactly one decrement (paper §5.1:
	// "decremented conservatively every four epochs").
	for i := 0; i < 3*1000; i++ {
		a.Tick(0)
	}
	if a.Value() != up {
		t.Fatalf("window decremented early: %d", a.Value())
	}
	for i := 0; i < 1000; i++ {
		a.Tick(0)
	}
	if a.Value() != up-1 {
		t.Fatalf("window = %d, want %d after 4 quiet epochs", a.Value(), up-1)
	}
}

func TestAdaptiveBoundedBelow(t *testing.T) {
	cfg := adaptiveCfg()
	a := NewAdaptiveIdleDetect(cfg)
	for i := 0; i < 100*1000; i++ {
		a.Tick(0)
	}
	if a.Value() != cfg.IdleDetectMin {
		t.Fatalf("window = %d, want floor %d", a.Value(), cfg.IdleDetectMin)
	}
}

func TestAdaptiveCriticalStormResetsQuietStreak(t *testing.T) {
	cfg := adaptiveCfg()
	a := NewAdaptiveIdleDetect(cfg)
	// Raise the window so a decrement is possible.
	for i := 0; i < 1000; i++ {
		a.Tick(1)
	}
	up := a.Value()
	// Three quiet epochs, then a noisy one: the streak must reset.
	for i := 0; i < 3*1000; i++ {
		a.Tick(0)
	}
	for i := 0; i < 1000; i++ {
		a.Tick(1)
	}
	// Three more quiet epochs: still no decrement (streak restarted).
	for i := 0; i < 3*1000; i++ {
		a.Tick(0)
	}
	if a.Value() < up {
		t.Fatal("quiet streak not reset by a noisy epoch")
	}
}

func TestAdaptiveStartClampedToBounds(t *testing.T) {
	cfg := adaptiveCfg()
	cfg.IdleDetect = 2 // below the min bound of 5
	a := NewAdaptiveIdleDetect(cfg)
	if a.Value() != cfg.IdleDetectMin {
		t.Fatalf("start value %d not clamped to min %d", a.Value(), cfg.IdleDetectMin)
	}
}

func TestAdaptiveNegativePanics(t *testing.T) {
	a := NewAdaptiveIdleDetect(adaptiveCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("negative criticals did not panic")
		}
	}()
	a.Tick(-1)
}

func TestAdaptiveStats(t *testing.T) {
	a := NewAdaptiveIdleDetect(adaptiveCfg())
	for i := 0; i < 2000; i++ {
		a.Tick(1)
	}
	inc, dec, epochs := a.Stats()
	if epochs != 2 || inc != 2 || dec != 0 {
		t.Fatalf("stats = %d/%d/%d", inc, dec, epochs)
	}
}
