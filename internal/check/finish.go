package check

import (
	"sync"

	"warpedgates/internal/config"
	"warpedgates/internal/gating"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
)

// domainAgg accumulates one class's observed counters across all its lanes,
// already converted to the pre-tick accounting the controllers use.
type domainAgg struct {
	lanes      int
	busy       uint64
	idle       uint64
	powered    uint64
	gated      uint64
	uncomp     uint64
	comp       uint64
	events     uint64
	wakeups    uint64
	idleRuns   uint64
	idleRunSum uint64
	idleRunMin int // -1 when no lane completed a run
	idleRunMax int
}

// Finish closes every in-progress observation window, reconciles the
// independently reconstructed per-domain counters against rep, verifies the
// report's own conservation laws (busy+idle == powered+gated == cell-cycles,
// uncomp+comp == gated, histogram sum == idle cycles), and — when the
// workload is known and fully drained — checks that issued instructions
// equal the kernel's conserved dynamic instruction count. It returns Err().
func (c *Checker) Finish(rep *sim.Report) error {
	if rep == nil {
		c.violate(-1, 0, "finish", "Finish called with a nil report")
		return c.Err()
	}

	// The controllers' pre-tick counters relate to the observed post-tick
	// stream by exact boundary terms: a lane ticked N times has pre-states
	// {Active, post_1, ..., post_{N-1}} — the first pre-state is always
	// Active (controllers power up active) and the final post-state is never
	// a pre-state.
	var agg [isa.NumClasses]domainAgg
	for i := range agg {
		agg[i].idleRunMin = -1
	}
	var maxTicks int64
	for _, s := range c.sms {
		if s == nil {
			continue
		}
		if s.ticks > maxTicks {
			maxTicks = s.ticks
		}
		c.checks++
		if len(s.pend) > 0 {
			c.violate(s.id, s.pendCycle, "issue-probe-skew",
				"%d issue events never matched by a probe", len(s.pend))
		}
		for _, l := range s.lanes {
			l.endIdleRun()
			g := &agg[l.class]
			g.lanes++
			g.busy += l.busy
			g.idle += l.idle
			g.powered += l.obs[gating.StActive] + l.obs[gating.StWakeup] + 1
			g.gated += l.obs[gating.StUncompensated] + l.obs[gating.StCompensated]
			g.uncomp += l.obs[gating.StUncompensated]
			g.comp += l.obs[gating.StCompensated]
			switch l.prev {
			case gating.StActive, gating.StWakeup:
				g.powered--
			case gating.StUncompensated:
				g.gated--
				g.uncomp--
			case gating.StCompensated:
				g.gated--
				g.comp--
			}
			g.events += l.gatingEvents
			g.wakeups += l.wakeups
			g.idleRuns += l.idleRuns
			g.idleRunSum += l.idleRunSum
			if l.idleRunMin >= 0 && (g.idleRunMin < 0 || l.idleRunMin < g.idleRunMin) {
				g.idleRunMin = l.idleRunMin
			}
			if l.idleRunMax > g.idleRunMax {
				g.idleRunMax = l.idleRunMax
			}
		}
	}

	cyc := rep.Cycles
	c.eq(cyc, "cycles", uint64(cyc), uint64(maxTicks), "report cycle count vs longest observed SM")
	c.checks++
	if rep.RanOut {
		if c.cfg.MaxCycles <= 0 || cyc != int64(c.cfg.MaxCycles) {
			c.violate(-1, cyc, "ranout", "RanOut with %d cycles, MaxCycles=%d", cyc, c.cfg.MaxCycles)
		}
	} else if c.cfg.MaxCycles > 0 && cyc > int64(c.cfg.MaxCycles) {
		c.violate(-1, cyc, "ranout", "%d cycles exceed MaxCycles=%d without RanOut", cyc, c.cfg.MaxCycles)
	}

	var repIssued uint64
	for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
		c.finishDomain(rep, cl, &agg[cl])
		repIssued += rep.IssuedByClass[cl]
	}
	c.eq(cyc, "issued-total", rep.IssuedTotal, c.issuedTotal, "report IssuedTotal vs traced issues")
	c.eq(cyc, "issued-total", rep.IssuedTotal, repIssued, "report IssuedTotal vs sum of IssuedByClass")

	// Conservation at drain: every simulated run that did not hit MaxCycles
	// must have issued (and, since the probe outlives the last writeback,
	// retired) exactly the workload's dynamic instruction count.
	if !rep.RanOut && c.kernel != nil {
		c.eq(cyc, "drain-conservation", ExpectedIssued(c.cfg, c.kernel), c.issuedTotal,
			"kernel dynamic instruction count vs issued at drain")
	}
	return c.Err()
}

// finishDomain reconciles one class's DomainStats against the observation
// aggregate and checks the report's internal partition laws.
func (c *Checker) finishDomain(rep *sim.Report, cl isa.Class, g *domainAgg) {
	d := &rep.Domains[cl]
	cyc := rep.Cycles
	name := "domain " + cl.String()

	c.eq(cyc, "domain-lanes", uint64(d.Clusters), uint64(g.lanes), name+" Clusters vs probed lanes")
	if g.lanes == 0 {
		// A class with no pipes (impossible today) or a run with zero probed
		// cycles: only the zero-ness of the report matters.
		c.eq(cyc, "domain-empty", d.CellCycles(), 0, name+" counters without probed lanes")
		return
	}

	c.eq(cyc, "domain-busy", d.BusyCycles, g.busy, name+" BusyCycles vs observed busy")
	c.eq(cyc, "domain-idle", d.IdleCycles, g.idle, name+" IdleCycles vs observed idle")
	c.eq(cyc, "domain-powered", d.PoweredCycles, g.powered, name+" PoweredCycles vs observed powered")
	c.eq(cyc, "domain-gated", d.GatedCycles, g.gated, name+" GatedCycles vs observed gated")
	c.eq(cyc, "domain-uncomp", d.UncompCycles, g.uncomp, name+" UncompCycles vs observed uncompensated")
	c.eq(cyc, "domain-comp", d.CompCycles, g.comp, name+" CompCycles vs observed compensated")
	c.eq(cyc, "domain-gatings", d.GatingEvents, g.events, name+" GatingEvents vs observed Active->Uncomp transitions")
	c.eq(cyc, "domain-wakeups", d.Wakeups, g.wakeups, name+" Wakeups vs observed gated->wake transitions")
	c.eq(cyc, "domain-issued", d.IssuedInstrs, c.issuedByClass[cl], name+" IssuedInstrs vs traced issues")

	// Partition laws: the busy/idle and powered/gated splits both cover every
	// domain-cycle exactly once, and gated splits into uncomp+comp.
	c.eq(cyc, "domain-partition", d.BusyCycles+d.IdleCycles, d.PoweredCycles+d.GatedCycles,
		name+" busy+idle vs powered+gated")
	c.eq(cyc, "domain-partition", d.UncompCycles+d.CompCycles, d.GatedCycles, name+" uncomp+comp vs gated")
	c.checks++
	if d.Wakeups > d.GatingEvents {
		c.violate(-1, cyc, "domain-wakeups", "%s has %d wakeups for %d gating events", name, d.Wakeups, d.GatingEvents)
	}

	// Idle-period histogram: every idle cycle belongs to exactly one recorded
	// idle run (the paper's Fig. 5b/Fig. 8 bookkeeping).
	h := d.IdlePeriods
	c.eq(cyc, "idle-histogram", uint64(h.Sum()), d.IdleCycles, name+" IdlePeriods sum vs IdleCycles")
	c.eq(cyc, "idle-histogram", uint64(h.Total()), g.idleRuns, name+" IdlePeriods count vs observed idle runs")
	c.eq(cyc, "idle-histogram", uint64(h.Sum()), g.idleRunSum, name+" IdlePeriods sum vs observed idle run lengths")
	if g.idleRuns > 0 {
		c.eq(cyc, "idle-histogram", uint64(h.Min()), uint64(g.idleRunMin), name+" IdlePeriods min vs observed")
		c.eq(cyc, "idle-histogram", uint64(h.Max()), uint64(g.idleRunMax), name+" IdlePeriods max vs observed")
	}

	// Policy laws on the report itself.
	kind := c.cfg.Gating
	if cl == isa.SFU || cl == isa.LDST {
		kind = auxGatingKind(c.cfg)
	}
	c.checks++
	switch {
	case kind == config.GateNone:
		if d.GatedCycles != 0 || d.GatingEvents != 0 || d.Wakeups != 0 {
			c.violate(-1, cyc, "gating-disabled", "%s gated %d cycles under %s", name, d.GatedCycles, kind)
		}
	case isBlackout(kind):
		if d.NegativeEvents != 0 {
			c.violate(-1, cyc, "blackout-negative", "%s reports %d negative events under %s", name, d.NegativeEvents, kind)
		}
	}
}

// eq is one exact-equality invariant evaluation.
func (c *Checker) eq(cycle int64, rule string, got, want uint64, what string) {
	c.checks++
	if got != want {
		c.violate(-1, cycle, rule, "%s: %d != %d", what, got, want)
	}
}

// ExpectedIssued returns the dynamic instruction count a fully drained
// simulation of kernel k under cfg must issue — the sim's warp-table geometry
// (CTA slots clamped by the SM's warp budget) replayed arithmetically. It is
// the conserved quantity behind the issued == retired drain check.
func ExpectedIssued(cfg config.Config, k *kernels.Kernel) uint64 {
	conc := k.MaxConcurrentCTAs
	if max := cfg.MaxWarpsPerSM / k.WarpsPerCTA; conc > max {
		conc = max
	}
	if conc < 1 {
		conc = 1
	}
	nWarps := conc * k.WarpsPerCTA
	if nWarps > cfg.MaxWarpsPerSM {
		nWarps = cfg.MaxWarpsPerSM
	}
	warpsPerCTA := k.WarpsPerCTA
	if warpsPerCTA > nWarps {
		warpsPerCTA = nWarps
	}
	perWarp := uint64(k.TotalWarpInstructions())
	if k.PerWarpSlice {
		perWarp = 1
	}
	return uint64(cfg.NumSMs) * uint64(k.CTAsPerSM) * uint64(warpsPerCTA) * perWarp
}

// Summary accumulates checker outcomes across a matrix of runs. It is safe
// for concurrent use, matching Runner.Instrument's concurrency contract.
type Summary struct {
	mu     sync.Mutex
	runs   int
	checks uint64
}

// record folds one finished checker into the summary.
func (s *Summary) record(c *Checker) {
	s.mu.Lock()
	s.runs++
	s.checks += c.Checks()
	s.mu.Unlock()
}

// Snapshot returns the number of checked simulations and the total invariant
// evaluations performed so far.
func (s *Summary) Snapshot() (runs int, checks uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs, s.checks
}

// Instrument returns a hook for core.Runner's Instrument field: each uncached
// simulation gets a fresh Checker attached, and its Finish error fails the
// run. sum, when non-nil, collects per-run totals and may be shared across
// runners.
func Instrument(sum *Summary) func(bench string, cfg config.Config, k *kernels.Kernel, g *sim.GPU) func(*sim.Report) error {
	return func(bench string, cfg config.Config, k *kernels.Kernel, g *sim.GPU) func(*sim.Report) error {
		c := New(cfg, k)
		c.Attach(g)
		return func(rep *sim.Report) error {
			err := c.Finish(rep)
			if sum != nil {
				sum.record(c)
			}
			return err
		}
	}
}

// Run simulates kernel k under cfg with a checker attached and returns the
// report, the checker (for its counters), and the checker's verdict.
func Run(cfg config.Config, k *kernels.Kernel) (*sim.Report, *Checker, error) {
	gpu, err := sim.NewGPU(cfg, k)
	if err != nil {
		return nil, nil, err
	}
	c := New(cfg, k)
	c.Attach(gpu)
	rep := gpu.Run()
	return rep, c, c.Finish(rep)
}
