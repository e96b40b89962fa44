// Package config holds the machine description for the simulated GPGPU and
// the power-gating parameters. The default configuration mirrors the paper's
// baseline: an NVIDIA GTX480 (Fermi) as configured in GPGPU-Sim v3.02 —
// 15 SMs, 48 warps per SM, two warp schedulers issuing one warp each per
// cycle, two SP clusters of 16 CUDA cores (each core has an INT and an FP
// pipe), four SFUs, sixteen LD/ST units — with an idle-detect window of
// 5 cycles, a break-even time of 14 cycles and a wakeup delay of 3 cycles.
package config

import "fmt"

// SchedulerKind selects the warp-scheduling policy.
type SchedulerKind uint8

// Scheduler kinds. Encoded reports and job keys store the number, so the
// values are fixed; 0 is not a scheduler.
const (
	SchedTwoLevel SchedulerKind = 1 // Gebhart-style two-level scheduler (paper baseline)
	SchedGATES    SchedulerKind = 2 // gating-aware two-level scheduler (the contribution)
)

// String names the scheduler kind.
func (k SchedulerKind) String() string {
	switch k {
	case SchedTwoLevel:
		return "TwoLevel"
	case SchedGATES:
		return "GATES"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", uint8(k))
	}
}

// GatingKind selects the power-gating controller policy.
type GatingKind uint8

// Gating kinds, in the paper's naming.
const (
	GateNone          GatingKind = iota // units always powered (normalization baseline)
	GateConventional                    // Hu et al. [13]: idle-detect then gate, wake on demand
	GateNaiveBlackout                   // no wakeup before break-even time
	GateCoordBlackout                   // blackout coordinated across the two clusters of a type
)

// String names the gating kind.
func (k GatingKind) String() string {
	switch k {
	case GateNone:
		return "None"
	case GateConventional:
		return "ConvPG"
	case GateNaiveBlackout:
		return "NaiveBlackout"
	case GateCoordBlackout:
		return "CoordBlackout"
	default:
		return fmt.Sprintf("GatingKind(%d)", uint8(k))
	}
}

// MaxSMs bounds NumSMs. Configurations arrive from untrusted sources (API
// bodies, sweep specs, the CLI), and every SM costs its own state up front,
// so an unbounded count could exhaust memory before the run starts. The
// paper's machine has 15.
const MaxSMs = 128

// Config is the complete machine + policy description for one simulation.
type Config struct {
	// --- Machine geometry (GTX480 defaults) ---

	NumSMs        int // streaming multiprocessors
	MaxWarpsPerSM int // concurrent warps resident on one SM
	NumSchedulers int // warp schedulers per SM, each issues <=1 per cycle
	NumSPClusters int // SP clusters per SM; each has one INT and one FP pipe

	// --- Power gating parameters ---

	IdleDetect  int // cycles a unit must be idle before gating triggers
	BreakEven   int // cycles gated needed to amortize one gating event
	WakeupDelay int // cycles from wakeup trigger to operational

	// --- Adaptive idle-detect (Warped Gates) ---

	AdaptiveIdleDetect bool
	EpochCycles        int // epoch length for critical-wakeup counting
	CriticalThreshold  int // critical wakeups per epoch that trigger +1
	IdleDetectMin      int // lower bound for the adaptive window
	IdleDetectMax      int // upper bound for the adaptive window
	DecrementEpochs    int // quiet epochs required before -1

	// --- Policies ---

	Scheduler SchedulerKind
	Gating    GatingKind
	// GATESMaxHold, when positive, bounds how many consecutive cycles one
	// instruction type may hold the GATES highest priority before a forced
	// switch — the "large maximum switching time threshold" safety valve
	// the paper's §4 offers designers. Zero (the paper default) disables it.
	GATESMaxHold int
	// BlackoutAux extends the Blackout policy to the SFU and LD/ST units.
	// The paper applies Blackout to the clustered CUDA cores only, arguing
	// conventional gating suffices for the rare SFU traffic (§3); this knob
	// implements the extension the paper mentions as possible, for the
	// ablation harness.
	BlackoutAux bool

	// --- Memory subsystem ---

	L1Sets        int // L1 data cache sets per SM
	L1Ways        int // L1 associativity
	L1HitLatency  int // cycles for an L1 hit (load-to-use)
	L2HitLatency  int // additional cycles for an L2 hit
	DRAMLatency   int // additional cycles for a DRAM access
	SharedLatency int // shared-memory access latency
	MSHRPerSM     int // outstanding misses per SM
	DRAMSlots     int // GPU-wide in-flight DRAM request limit (bandwidth)
	L2Sets        int // shared L2 sets
	L2Ways        int // shared L2 associativity

	// --- Simulation control ---

	MaxCycles int    // hard stop; 0 means run until all work drains
	Seed      uint64 // extra entropy mixed into every PRNG stream
	// IntraRunWorkers is ignored: every simulation runs on one serial loop.
	//
	// Deprecated: it once chose a multi-goroutine engine that never beat
	// that loop on 2-core hosts. The field stays because the separate bench
	// module still assigns it, and because every encoded report carries the
	// config, so keeping it leaves stored and served report bytes unchanged.
	// It is not part of the experiment runner's cache key.
	IntraRunWorkers int

	// --- Interval-sampled simulation ---
	//
	// SampleDetailCycles and SamplePeriod opt the simulator into
	// interval sampling: the simulator runs detailed windows of
	// SampleDetailCycles device cycles, and at each window boundary after a
	// three-period warm-up each SM earns a budget of
	// (SamplePeriod-SampleDetailCycles)/SampleDetailCycles times the
	// instructions it issued in the window and dequeues at most one whole
	// unlaunched CTA against it. The removed work's counters and cycles are
	// estimated from the whole post-warm-up detailed run, scaled by skipped
	// over measured instructions. The clock never
	// jumps and no architectural state is synthesized, so every engine
	// invariant holds; only the estimated totals differ from a full run.
	// Results change (the report carries a per-run error estimate), so both
	// knobs are part of the experiment runner's cache key. Both zero (the
	// default) disables sampling.
	SampleDetailCycles int
	SamplePeriod       int
}

// GTX480 returns the paper's baseline configuration.
func GTX480() Config {
	return Config{
		NumSMs:        15,
		MaxWarpsPerSM: 48,
		NumSchedulers: 2,
		NumSPClusters: 2,

		IdleDetect:  5,
		BreakEven:   14,
		WakeupDelay: 3,

		AdaptiveIdleDetect: false,
		EpochCycles:        1000,
		CriticalThreshold:  5,
		IdleDetectMin:      5,
		IdleDetectMax:      10,
		DecrementEpochs:    4,

		Scheduler: SchedTwoLevel,
		Gating:    GateNone,

		L1Sets:        32,
		L1Ways:        4,
		L1HitLatency:  28,
		L2HitLatency:  120,
		DRAMLatency:   230,
		SharedLatency: 24,
		MSHRPerSM:     32,
		DRAMSlots:     64,
		L2Sets:        256,
		L2Ways:        8,

		MaxCycles:       0,
		Seed:            0x5eed,
		IntraRunWorkers: 1,
	}
}

// Small returns a reduced configuration suitable for unit tests: two SMs and
// tight memory, but the same gating parameters as the paper.
func Small() Config {
	c := GTX480()
	c.NumSMs = 2
	c.MaxWarpsPerSM = 16
	c.DRAMSlots = 16
	return c
}

// Sampling reports whether interval-sampled simulation is enabled.
func (c *Config) Sampling() bool { return c.SampleDetailCycles > 0 }

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	check := func(ok bool, format string, args ...interface{}) error {
		if !ok {
			return fmt.Errorf("config: "+format, args...)
		}
		return nil
	}
	checks := []error{
		check(c.Scheduler == SchedTwoLevel || c.Scheduler == SchedGATES, "Scheduler must be TwoLevel or GATES, got %v", c.Scheduler),
		check(c.Gating <= GateCoordBlackout, "Gating must be None, ConvPG, NaiveBlackout or CoordBlackout, got %v", c.Gating),
		check(c.NumSMs > 0 && c.NumSMs <= MaxSMs, "NumSMs must be in [1,%d], got %d", MaxSMs, c.NumSMs),
		check(c.MaxWarpsPerSM > 0, "MaxWarpsPerSM must be positive, got %d", c.MaxWarpsPerSM),
		check(c.MaxWarpsPerSM <= 64, "MaxWarpsPerSM must be at most 64 (warp-table bitset width), got %d", c.MaxWarpsPerSM),
		check(c.NumSchedulers > 0, "NumSchedulers must be positive, got %d", c.NumSchedulers),
		check(c.NumSPClusters > 0, "NumSPClusters must be positive, got %d", c.NumSPClusters),
		check(c.IdleDetect >= 0, "IdleDetect must be non-negative, got %d", c.IdleDetect),
		check(c.BreakEven > 0, "BreakEven must be positive, got %d", c.BreakEven),
		check(c.WakeupDelay >= 0, "WakeupDelay must be non-negative, got %d", c.WakeupDelay),
		check(c.L1Sets > 0 && (c.L1Sets&(c.L1Sets-1)) == 0, "L1Sets must be a positive power of two, got %d", c.L1Sets),
		check(c.L1Ways > 0, "L1Ways must be positive, got %d", c.L1Ways),
		check(c.L2Sets > 0 && (c.L2Sets&(c.L2Sets-1)) == 0, "L2Sets must be a positive power of two, got %d", c.L2Sets),
		check(c.L2Ways > 0, "L2Ways must be positive, got %d", c.L2Ways),
		check(c.MSHRPerSM > 0, "MSHRPerSM must be positive, got %d", c.MSHRPerSM),
		check(c.DRAMSlots > 0, "DRAMSlots must be positive, got %d", c.DRAMSlots),
		check(c.MaxCycles >= 0, "MaxCycles must be non-negative, got %d", c.MaxCycles),
		check(c.IntraRunWorkers >= 0, "IntraRunWorkers must be non-negative, got %d", c.IntraRunWorkers),
		check(c.GATESMaxHold >= 0, "GATESMaxHold must be non-negative, got %d", c.GATESMaxHold),
		check(c.SampleDetailCycles >= 0, "SampleDetailCycles must be non-negative, got %d", c.SampleDetailCycles),
		check(c.SamplePeriod >= 0, "SamplePeriod must be non-negative, got %d", c.SamplePeriod),
		check((c.SampleDetailCycles == 0) == (c.SamplePeriod == 0),
			"SampleDetailCycles (%d) and SamplePeriod (%d) must be set together",
			c.SampleDetailCycles, c.SamplePeriod),
		check(c.SamplePeriod == 0 || c.SamplePeriod > c.SampleDetailCycles,
			"SamplePeriod (%d) must exceed SampleDetailCycles (%d): each period is one detailed window plus the work it stands in for",
			c.SamplePeriod, c.SampleDetailCycles),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	if c.AdaptiveIdleDetect {
		switch {
		case c.EpochCycles <= 0:
			return fmt.Errorf("config: EpochCycles must be positive, got %d", c.EpochCycles)
		case c.CriticalThreshold < 0:
			return fmt.Errorf("config: CriticalThreshold must be non-negative, got %d", c.CriticalThreshold)
		case c.IdleDetectMin < 0 || c.IdleDetectMax < c.IdleDetectMin:
			return fmt.Errorf("config: adaptive idle-detect bounds invalid: [%d,%d]", c.IdleDetectMin, c.IdleDetectMax)
		case c.DecrementEpochs <= 0:
			return fmt.Errorf("config: DecrementEpochs must be positive, got %d", c.DecrementEpochs)
		}
	}
	return nil
}
