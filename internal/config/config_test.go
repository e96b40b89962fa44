package config

import (
	"strings"
	"testing"
)

func TestGTX480MatchesPaperBaseline(t *testing.T) {
	c := GTX480()
	// §7.1: 15 SMs, 48 warps per SM, two schedulers issuing one warp each,
	// two SP clusters; idle-detect 5, break-even 14, wakeup 3.
	if c.NumSMs != 15 {
		t.Errorf("NumSMs = %d, want 15", c.NumSMs)
	}
	if c.MaxWarpsPerSM != 48 {
		t.Errorf("MaxWarpsPerSM = %d, want 48", c.MaxWarpsPerSM)
	}
	if c.NumSchedulers != 2 {
		t.Errorf("NumSchedulers = %d, want 2", c.NumSchedulers)
	}
	if c.NumSPClusters != 2 {
		t.Errorf("NumSPClusters = %d, want 2", c.NumSPClusters)
	}
	if c.IdleDetect != 5 || c.BreakEven != 14 || c.WakeupDelay != 3 {
		t.Errorf("PG params = %d/%d/%d, want 5/14/3", c.IdleDetect, c.BreakEven, c.WakeupDelay)
	}
	// §5.1: adaptive window bounded to 5..10, epoch 1000 cycles, threshold
	// 5 critical wakeups, decrement every 4 epochs.
	if c.IdleDetectMin != 5 || c.IdleDetectMax != 10 {
		t.Errorf("adaptive bounds = %d..%d, want 5..10", c.IdleDetectMin, c.IdleDetectMax)
	}
	if c.EpochCycles != 1000 || c.CriticalThreshold != 5 || c.DecrementEpochs != 4 {
		t.Errorf("adaptive params = %d/%d/%d", c.EpochCycles, c.CriticalThreshold, c.DecrementEpochs)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestSmallValidates(t *testing.T) {
	c := Small()
	if err := c.Validate(); err != nil {
		t.Fatalf("Small() invalid: %v", err)
	}
	if c.NumSMs >= GTX480().NumSMs {
		t.Error("Small() should have fewer SMs than GTX480")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		frag string
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }, "NumSMs"},
		{"too many SMs", func(c *Config) { c.NumSMs = MaxSMs + 1 }, "NumSMs"},
		{"zero warps", func(c *Config) { c.MaxWarpsPerSM = 0 }, "MaxWarpsPerSM"},
		{"zero scheduler", func(c *Config) { c.Scheduler = SchedulerKind(0) }, "Scheduler"},
		{"unknown scheduler", func(c *Config) { c.Scheduler = SchedulerKind(3) }, "Scheduler"},
		{"unknown gating", func(c *Config) { c.Gating = GatingKind(4) }, "Gating"},
		{"zero schedulers", func(c *Config) { c.NumSchedulers = 0 }, "NumSchedulers"},
		{"zero clusters", func(c *Config) { c.NumSPClusters = 0 }, "NumSPClusters"},
		{"negative idle detect", func(c *Config) { c.IdleDetect = -1 }, "IdleDetect"},
		{"zero break even", func(c *Config) { c.BreakEven = 0 }, "BreakEven"},
		{"negative wakeup", func(c *Config) { c.WakeupDelay = -3 }, "WakeupDelay"},
		{"L1 sets not power of two", func(c *Config) { c.L1Sets = 33 }, "L1Sets"},
		{"zero L1 ways", func(c *Config) { c.L1Ways = 0 }, "L1Ways"},
		{"L2 sets", func(c *Config) { c.L2Sets = 0 }, "L2Sets"},
		{"L2 ways", func(c *Config) { c.L2Ways = -1 }, "L2Ways"},
		{"zero MSHR", func(c *Config) { c.MSHRPerSM = 0 }, "MSHR"},
		{"zero DRAM slots", func(c *Config) { c.DRAMSlots = 0 }, "DRAMSlots"},
		{"negative max cycles", func(c *Config) { c.MaxCycles = -1 }, "MaxCycles"},
	}
	for _, tc := range cases {
		c := GTX480()
		tc.mut(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

func TestValidateAdaptiveRejections(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.EpochCycles = 0 },
		func(c *Config) { c.CriticalThreshold = -1 },
		func(c *Config) { c.IdleDetectMax = c.IdleDetectMin - 1 },
		func(c *Config) { c.DecrementEpochs = 0 },
	}
	for i, mut := range cases {
		c := GTX480()
		c.AdaptiveIdleDetect = true
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("adaptive case %d: expected error", i)
		}
	}
	// The same fields are ignored when adaptation is off.
	c := GTX480()
	c.AdaptiveIdleDetect = false
	c.EpochCycles = 0
	if err := c.Validate(); err != nil {
		t.Errorf("non-adaptive config should ignore adaptive fields: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	if SchedTwoLevel.String() != "TwoLevel" || SchedGATES.String() != "GATES" {
		t.Error("scheduler names wrong")
	}
	if GateNone.String() != "None" || GateConventional.String() != "ConvPG" {
		t.Error("gating names wrong")
	}
	if GateNaiveBlackout.String() != "NaiveBlackout" || GateCoordBlackout.String() != "CoordBlackout" {
		t.Error("blackout names wrong")
	}
	if !strings.Contains(SchedulerKind(42).String(), "42") || !strings.Contains(GatingKind(42).String(), "42") {
		t.Error("unknown kinds should include their numeric value")
	}
}

// TestKindNumbersAreStable pins the kinds' numbers: encoded reports and job
// keys store them, so renumbering a kind would change what every stored
// report decodes to.
func TestKindNumbersAreStable(t *testing.T) {
	if SchedTwoLevel != 1 || SchedGATES != 2 {
		t.Errorf("scheduler kinds = %d/%d, want 1/2", SchedTwoLevel, SchedGATES)
	}
	if GateNone != 0 || GateConventional != 1 || GateNaiveBlackout != 2 || GateCoordBlackout != 3 {
		t.Errorf("gating kinds = %d/%d/%d/%d, want 0/1/2/3",
			GateNone, GateConventional, GateNaiveBlackout, GateCoordBlackout)
	}
}
