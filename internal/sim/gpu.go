package sim

import (
	"context"
	"fmt"

	"warpedgates/internal/config"
	"warpedgates/internal/gating"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/mem"
	"warpedgates/internal/stats"
)

// GPU is the whole simulated device: the SM array plus the shared memory
// system, stepped in lockstep.
type GPU struct {
	cfg    config.Config
	kernel *kernels.Kernel
	sms    []*SM
	gmem   *mem.GPUMem
	cycle  int64
	ranOut bool // MaxCycles hit before the workload drained
}

// NewGPU builds a device running kernel k under cfg. It validates both.
func NewGPU(cfg config.Config, k *kernels.Kernel) (*GPU, error) {
	return newGPU(cfg, k, false)
}

// newGPU is NewGPU with a choice of loop. A stepped device steps every SM
// every cycle and ticks every gating controller every cycle, instead of
// jumping across cycles that repeat a stalled one and ticking a class's
// controllers only when their inputs change or an event falls due. Both
// loops are cycle-exact (identical reports, probes, histograms and memory
// counters); the stepped one is the reference the fast-forward tests
// compare against.
func newGPU(cfg config.Config, k *kernels.Kernel, stepped bool) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	g := &GPU{cfg: cfg, kernel: k, gmem: mem.NewGPUMem(cfg)}
	benchSeed := stats.CombineSeeds(stats.HashString(k.Name), cfg.Seed)
	prog := decodeKernel(k)
	for i := 0; i < cfg.NumSMs; i++ {
		g.sms = append(g.sms, newSM(i, cfg, prog, g.gmem, benchSeed, stepped))
	}
	return g, nil
}

// Run executes the workload to completion (or cfg.MaxCycles) and returns the
// final report. It is RunCtx under a background context, which can never be
// canceled, so the error return is vacuous and elided.
func (g *GPU) Run() *Report {
	rep, _ := g.RunCtx(context.Background())
	return rep
}

// canceled wraps the context's cause into the error a canceled run returns.
// context.Cause surfaces a typed cause when the caller planted one (the
// service's per-job deadline arms context.WithTimeoutCause), and the plain
// context.Canceled/DeadlineExceeded otherwise, so errors.Is works against
// whichever sentinel the caller planted.
func (g *GPU) canceled(ctx context.Context) error {
	return fmt.Errorf("sim: %s canceled at cycle %d: %w", g.kernel.Name, g.cycle, context.Cause(ctx))
}

// RunCtx executes the workload to completion (or cfg.MaxCycles) and returns
// the final report. One serial loop steps the SM array in SM-id order, so
// every access reaches the shared L2/DRAM in a fixed order and the report is
// a pure function of the configuration and kernel.
//
// Cancellation is polled once per device step, so a canceled context stops
// the simulation within one step. A canceled run returns a nil report and an
// error wrapping context.Cause(ctx); the device's partial state is not
// meaningful and no report is assembled.
func (g *GPU) RunCtx(ctx context.Context) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, g.canceled(ctx)
	}
	smp := newSampler(g)
	// Completion is event-driven rather than scanned: an SM flips its drained
	// flag at the transition point (last warp of its last CTA finishing, in
	// commitIssue), and Run only maintains the count of SMs still holding
	// work. The clock advances to the minimum wake-up cycle the live SMs
	// report, so when every live SM has jumped across a stall, the whole
	// device jumps in one step; SMs whose target lies further out return it
	// again unchanged until the clock catches up.
	live := 0
	for _, sm := range g.sms {
		if sm.done() {
			sm.drained = true
		} else {
			live++
		}
	}
	maxCycles := int64(g.cfg.MaxCycles)
	// done is nil for an uncancellable context (Run's Background), making the
	// poll below free on the hot path that cannot observe it anyway.
	done := ctx.Done()
	for live > 0 {
		if done != nil {
			select {
			case <-done:
				return nil, g.canceled(ctx)
			default:
			}
		}
		if maxCycles > 0 && g.cycle >= maxCycles {
			g.ranOut = true
			break
		}
		next := int64(-1)
		for _, sm := range g.sms {
			if sm.drained {
				continue
			}
			// An SM still inside a jump has nothing to step.
			wake := sm.skipUntil
			if wake <= g.cycle {
				wake = sm.step(g.cycle)
			}
			if sm.drained {
				live--
				continue
			}
			if next < 0 || wake < next {
				next = wake
			}
		}
		if next < 0 {
			// The last live SM drained this cycle; account the cycle as the
			// scan-based loop did before breaking out.
			g.cycle++
		} else {
			g.cycle = next
		}
		// Clamp the jump: a wake-up target past the cap must not
		// leave a RanOut report claiming more cycles than MaxCycles allows
		// (sm.step clamps its own targets, but the cap is a report-level
		// invariant, so it is enforced where the clock is written).
		if maxCycles > 0 && g.cycle > maxCycles {
			g.cycle = maxCycles
		}
		if smp != nil && g.cycle >= smp.next {
			smp.boundary()
		}
	}
	for _, sm := range g.sms {
		sm.finish()
	}
	return g.report(smp), nil
}

// Cycle returns the current simulated cycle.
func (g *GPU) Cycle() int64 { return g.cycle }

// IssueTracer observes every successful instruction issue; see SetIssueTracer.
type IssueTracer func(smID int, cycle int64, warpIdx int, class isa.Class, cluster int)

// IssueEvent is one recorded instruction issue, for trace consumers.
type IssueEvent struct {
	Cycle   int64
	Warp    int
	Class   isa.Class
	Cluster int
}

// SetIssueTracer installs a callback invoked on every issue. It serves
// fine-grained experiments (the paper's Figure 4 schedule walkthrough), the
// invariant checker, and the service's progress events, which read its
// cycle. Issues arrive in non-decreasing cycle order across SMs. Unlike a
// cycle probe it costs nothing on cycles that issue nothing, fast-forwarded
// ones included; runs nobody observes leave it nil.
func (g *GPU) SetIssueTracer(f IssueTracer) {
	for _, sm := range g.sms {
		sm.tracer = f
	}
}

// LaneState is one gating domain's observable state during one cycle.
type LaneState struct {
	Class   isa.Class
	Cluster int
	Busy    bool
	State   gating.State
}

// CycleProbe observes every gating domain of an SM once per cycle, after the
// gating controllers tick; see SetCycleProbe.
type CycleProbe func(smID int, cycle int64, lanes []LaneState)

// SetCycleProbe installs a per-cycle state probe on every SM. The lanes
// slice is reused across calls; consumers must copy what they keep.
func (g *GPU) SetCycleProbe(f CycleProbe) {
	for _, sm := range g.sms {
		sm.probe = f
	}
}

// SMs exposes the SM array for white-box tests.
func (g *GPU) SMs() []*SM { return g.sms }

// DomainStats aggregates one gating-domain class (e.g. all INT pipes of all
// SMs) over the whole device.
type DomainStats struct {
	Class    isa.Class
	Clusters int // gating domains aggregated (pipes × SMs)

	gating.Counters
	IssuedInstrs uint64

	IdlePeriods *stats.Histogram // packed, so read-only
}

// CellCycles returns the total domain-cycles observed (cycles × clusters).
func (d *DomainStats) CellCycles() uint64 {
	return d.BusyCycles + d.IdleCycles
}

// IdleFraction returns idle cycles over total domain-cycles (Fig. 8a).
func (d *DomainStats) IdleFraction() float64 {
	return stats.Ratio(float64(d.IdleCycles), float64(d.CellCycles()))
}

// CompensatedFraction returns compensated-state cycles over total
// domain-cycles (Fig. 8b, positive part).
func (d *DomainStats) CompensatedFraction() float64 {
	return stats.Ratio(float64(d.CompCycles), float64(d.CellCycles()))
}

// UncompensatedFraction returns uncompensated-state cycles over total
// domain-cycles (Fig. 8b, negative part).
func (d *DomainStats) UncompensatedFraction() float64 {
	return stats.Ratio(float64(d.UncompCycles), float64(d.CellCycles()))
}

// Report is the complete outcome of one simulation.
type Report struct {
	Benchmark string
	Config    config.Config
	Cycles    int64
	RanOut    bool

	Domains [isa.NumClasses]DomainStats

	IssuedByClass [isa.NumClasses]uint64
	IssuedTotal   uint64

	ActiveWarpAvg float64
	ActiveWarpMax int

	IssueStallsMem  uint64
	IssueStallsGate uint64
	CTAsCompleted   int

	L1MissRate float64
	L2Stats    [4]uint64 // accesses, misses, dram requests, queue delay

	// Interval-sampling metadata (see internal/sim/sampling.go). Sampled is
	// set when the run used interval sampling; the counters above then mix
	// detailed measurement with closed-form estimate. SampledDetailCycles is
	// the device cycles actually simulated (Cycles minus the estimate),
	// SampledSkippedInstrs/CTAs the work spliced out, and SampleErrorEst a
	// heuristic relative error estimate for Cycles (window-rate dispersion
	// scaled by the estimated fraction). All zero for full runs, so reports
	// decoded from stores written before sampling existed read as unsampled.
	Sampled              bool
	SampledDetailCycles  int64
	SampledSkippedInstrs uint64
	SampledSkippedCTAs   int
	SampleErrorEst       float64
}

// ratioSums are the device sums the report's two ratios divide.
type ratioSums struct{ smCycles, warpSum, l1Acc, l1Miss uint64 }

// collect walks every SM and pipe once and adds the device's counters into
// r, merging idle histograms only where r holds one. It returns the sums
// behind r's ratios. report and the sampler's snapshots both read it.
func (g *GPU) collect(r *Report) (t ratioSums) {
	for _, sm := range g.sms {
		st := &sm.st
		t.smCycles += uint64(st.Cycles)
		t.warpSum += st.ActiveWarpSum
		r.ActiveWarpMax = max(r.ActiveWarpMax, st.ActiveWarpMax)
		r.IssueStallsMem += st.IssueStallsMem
		r.IssueStallsGate += st.IssueStallsGate
		r.CTAsCompleted += st.CTAsCompleted
		for c := range r.IssuedByClass {
			r.IssuedByClass[c] += st.IssuedByClass[c]
		}
		r.IssuedTotal += st.IssuedTotal
		for _, p := range sm.pipes {
			d := &r.Domains[p.Class()]
			d.Clusters++
			gs := p.Gate().Stats()
			d.Counters.Add(&gs.Counters)
			d.IssuedInstrs += p.Issued()
			if d.IdlePeriods != nil {
				d.IdlePeriods.Merge(gs.IdlePeriods)
			}
		}
		a, m := sm.memPort.L1().Stats()
		t.l1Acc += a
		t.l1Miss += m
	}
	a, m, d, q := g.gmem.Stats()
	r.L2Stats = [4]uint64{a, m, d, q}
	return t
}

// updateCounters replaces every counter v the sampler extrapolates by f(v), in
// the order of its vector after the device cycle: the ratio sums t, then r's
// additive counters (see the slot constants in sampling.go).
func updateCounters(r *Report, t *ratioSums, f func(uint64) uint64) {
	for _, p := range []*uint64{&t.smCycles, &t.warpSum, &t.l1Acc, &t.l1Miss,
		&r.IssuedTotal, &r.IssueStallsMem, &r.IssueStallsGate} {
		*p = f(*p)
	}
	for c := range r.IssuedByClass {
		r.IssuedByClass[c] = f(r.IssuedByClass[c])
	}
	for i := range r.L2Stats {
		r.L2Stats[i] = f(r.L2Stats[i])
	}
	for c := range r.Domains {
		d := &r.Domains[c]
		d.Counters.Update(f)
		d.IssuedInstrs = f(d.IssuedInstrs)
	}
}

// report assembles the final Report from per-SM state, folding in the
// sampler's estimate of the spliced-out work when the run was sampled.
func (g *GPU) report(smp *sampler) *Report {
	r := &Report{
		Benchmark: g.kernel.Name,
		Config:    g.cfg,
		Cycles:    g.cycle,
		RanOut:    g.ranOut,
	}
	for c := range r.Domains {
		r.Domains[c] = DomainStats{Class: isa.Class(c), IdlePeriods: stats.NewHistogram()}
	}
	t := g.collect(r)
	// The ratios divide detailed plus estimated sums; est is zero for a
	// full run.
	var est [vIssued]float64
	if smp != nil {
		est = smp.apply(r)
	}
	if v := float64(t.smCycles) + est[vSMCycles]; v > 0 {
		r.ActiveWarpAvg = (float64(t.warpSum) + est[vWarpSum]) / v
	}
	if v := float64(t.l1Acc) + est[vL1Acc]; v > 0 {
		r.L1MissRate = (float64(t.l1Miss) + est[vL1Miss]) / v
	}
	// Pack here, before the report is published: the runner cache shares
	// reports across goroutines, so nothing may repack one on read.
	for c := range r.Domains {
		r.Domains[c].IdlePeriods.Pack()
	}
	return r
}

// InstructionMix returns the dynamic instruction mix measured from issued
// instructions (the basis of Fig. 5a).
func (r *Report) InstructionMix() [isa.NumClasses]float64 {
	var mix [isa.NumClasses]float64
	if r.IssuedTotal == 0 {
		return mix
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		mix[c] = float64(r.IssuedByClass[c]) / float64(r.IssuedTotal)
	}
	return mix
}

// CriticalWakeupsPer1000 returns critical wakeups per thousand cycles for a
// class, aggregated over the device (Fig. 6's x-axis).
func (r *Report) CriticalWakeupsPer1000(c isa.Class) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Domains[c].CriticalWakeups) / float64(r.Cycles) * 1000 / float64(r.Config.NumSMs)
}

// String summarizes the report.
func (r *Report) String() string {
	return fmt.Sprintf("Report{%s %s/%s cycles=%d int=%d fp=%d sfu=%d ldst=%d avgActive=%.1f}",
		r.Benchmark, r.Config.Scheduler, r.Config.Gating, r.Cycles,
		r.IssuedByClass[isa.INT], r.IssuedByClass[isa.FP],
		r.IssuedByClass[isa.SFU], r.IssuedByClass[isa.LDST], r.ActiveWarpAvg)
}
