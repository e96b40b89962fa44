// Package check is the cycle-level invariant checker of the reproduction:
// it attaches to the simulator's observation hooks (sim.GPU.SetCycleProbe and
// sim.GPU.SetIssueTracer) and verifies, every cycle, the conservation laws the
// paper's metrics rest on — no issue to a power-gated or waking unit, the
// wakeup latency honored exactly, break-even windows accounted exactly once,
// the scheduler never double-issuing a warp, and at drain the per-domain
// DomainStats counters matching an independent reconstruction from the
// observed per-lane state stream plus the workload's conserved instruction
// count.
//
// The checker is pure observation: it installs probes, never mutates the
// simulation, and a checked run produces bit-identical reports to an
// unchecked one. One Checker verifies one simulation; for matrix runs the
// Instrument adapter plugs into core.Runner's Instrument hook and builds a
// fresh Checker per uncached simulation, which makes the whole harness safe
// under the parallel runner and `go test -race`.
package check

import (
	"errors"
	"fmt"
	"strings"

	"warpedgates/internal/config"
	"warpedgates/internal/gating"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
)

// MaxViolations bounds how many violations each SM's shard (and the
// device-level Finish pass) records in detail; beyond it only the count
// grows. A single broken invariant typically fires every cycle, so the cap
// keeps a failing run's error readable.
const MaxViolations = 50

// Violation is one detected invariant breach.
type Violation struct {
	SM     int   // SM index, or -1 for whole-device (end-of-run) checks
	Cycle  int64 // simulated cycle of the breach
	Rule   string
	Detail string
}

// String renders the violation for error messages.
func (v Violation) String() string {
	return fmt.Sprintf("sm=%d cycle=%d [%s] %s", v.SM, v.Cycle, v.Rule, v.Detail)
}

// Checker verifies one simulation. Build it with New, install with Attach,
// run the GPU, then call Finish with the final report. Attach exactly one
// Checker per GPU. Observation state is kept per SM and built lazily on the
// SM's first callback; Finish plus the accessors must be called after the
// run completes.
type Checker struct {
	cfg    config.Config
	kernel *kernels.Kernel // may be nil: the drained-work check is then skipped

	sms []*smChecker // indexed by SM id; nil until first observed

	// Aggregates over the shards, computed by Finish (single-threaded).
	issuedByClass [isa.NumClasses]uint64
	issuedTotal   uint64

	// Device-level (Finish-pass) evaluations and breaches; the per-SM
	// counterparts live on the shards.
	checks     uint64
	violations []Violation
	dropped    uint64
}

// smChecker holds one SM's observation state, including its own check and
// violation counters.
type smChecker struct {
	id        int
	ticks     int64
	lastCycle int64 // last probed cycle; -1 before the first probe
	lanes     []*laneChecker

	pend      []issueRec // issue events of the in-progress cycle
	pendCycle int64

	issuedByClass [isa.NumClasses]uint64
	issuedTotal   uint64

	checks     uint64
	violations []Violation
	dropped    uint64
}

// issueRec is one buffered issue-tracer event, matched against the same
// cycle's probe (the tracer fires during the issue stage, the probe after the
// gating controllers tick).
type issueRec struct {
	warp    int
	class   isa.Class
	cluster int
}

// laneChecker shadows one gating domain. The probe reports the *post-tick*
// state each cycle while the controller's Stats count by *pre-tick* state;
// the two sequences are offset by one cycle, which Finish reconciles with
// exact boundary terms (the pre-state of the first tick is always StActive,
// and the final post-state is never counted by a tick).
type laneChecker struct {
	class   isa.Class
	cluster int
	kind    config.GatingKind // effective gating policy of this lane

	hasPrev bool
	prev    gating.State

	obs  [4]uint64 // observed post-tick cycles per state
	busy uint64
	idle uint64

	// In-progress run tracking for the window invariants.
	uncompRun int // observed cycles of the current uncompensated window
	wakeRun   int // observed cycles of the current wakeup sequence
	idleRun   int // length of the in-progress idle run

	// Observed idle-run distribution summary (cross-checked against the
	// domain's IdlePeriods histogram).
	idleRuns   uint64
	idleRunSum uint64
	idleRunMin int // -1 until the first completed run
	idleRunMax int

	gatingEvents uint64
	wakeups      uint64
}

// New builds a checker for one simulation of kernel k under cfg. k may be nil
// when the workload is not known (the drained-instruction-count check is then
// skipped); every other invariant still applies.
func New(cfg config.Config, k *kernels.Kernel) *Checker {
	n := cfg.NumSMs
	if n < 1 {
		n = 1
	}
	return &Checker{cfg: cfg, kernel: k, sms: make([]*smChecker, n)}
}

// Attach installs the checker's probes on g. It replaces any probe or tracer
// already installed; observation consumers and the checker cannot share a GPU.
func (c *Checker) Attach(g *sim.GPU) {
	g.SetCycleProbe(c.onProbe)
	g.SetIssueTracer(c.onIssue)
}

// Checks returns the number of individual invariant evaluations performed,
// summed over the SM shards and the device-level Finish pass.
func (c *Checker) Checks() uint64 {
	total := c.checks
	for _, s := range c.sms {
		if s != nil {
			total += s.checks
		}
	}
	return total
}

// Violations returns the recorded violations (each shard capped at
// MaxViolations) in ascending SM-id order, device-level checks last.
func (c *Checker) Violations() []Violation {
	var out []Violation
	for _, s := range c.sms {
		if s != nil {
			out = append(out, s.violations...)
		}
	}
	return append(out, c.violations...)
}

// Err summarizes all violations as one error, or nil for a clean run.
func (c *Checker) Err() error {
	vs := c.Violations()
	dropped := c.dropped
	for _, s := range c.sms {
		if s != nil {
			dropped += s.dropped
		}
	}
	if len(vs) == 0 && dropped == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s)", uint64(len(vs))+dropped)
	const show = 10
	for i, v := range vs {
		if i == show {
			fmt.Fprintf(&b, "\n  ... and %d more", uint64(len(vs)-show)+dropped)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return errors.New(b.String())
}

// violate records one device-level breach (the Finish pass), keeping at most
// MaxViolations details.
func (c *Checker) violate(smID int, cycle int64, rule, format string, args ...interface{}) {
	if len(c.violations) >= MaxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, Violation{
		SM: smID, Cycle: cycle, Rule: rule, Detail: fmt.Sprintf(format, args...),
	})
}

// violate records one breach against this SM's shard.
func (s *smChecker) violate(cycle int64, rule, format string, args ...interface{}) {
	if len(s.violations) >= MaxViolations {
		s.dropped++
		return
	}
	s.violations = append(s.violations, Violation{
		SM: s.id, Cycle: cycle, Rule: rule, Detail: fmt.Sprintf(format, args...),
	})
}

// auxGatingKind mirrors the SM's policy split: the paper's blackout machinery
// targets the clustered INT/FP pipes; SFU/LDST fall back to conventional
// gating unless the BlackoutAux extension is on (then Naive Blackout).
func auxGatingKind(cfg config.Config) config.GatingKind {
	k := cfg.Gating
	if k == config.GateNaiveBlackout || k == config.GateCoordBlackout {
		if cfg.BlackoutAux {
			return config.GateNaiveBlackout
		}
		return config.GateConventional
	}
	return k
}

// isBlackout reports whether kind forbids waking before break-even.
func isBlackout(kind config.GatingKind) bool {
	return kind == config.GateNaiveBlackout || kind == config.GateCoordBlackout
}

// laneName names a lane for violation messages.
func laneName(class isa.Class, cluster int) string {
	if class == isa.SFU || class == isa.LDST {
		return class.String()
	}
	return fmt.Sprintf("%s%d", class, cluster)
}

// sm returns (creating on first sight) the per-SM state.
func (c *Checker) sm(smID int) *smChecker {
	if smID < 0 || smID >= len(c.sms) {
		panic(fmt.Sprintf("check: probe from SM %d outside the configured %d SMs", smID, len(c.sms)))
	}
	s := c.sms[smID]
	if s == nil {
		s = &smChecker{id: smID, lastCycle: -1, pendCycle: -1}
		c.sms[smID] = s
	}
	return s
}

// onIssue buffers one issue event for correlation with this cycle's probe and
// maintains the conserved instruction totals.
func (c *Checker) onIssue(smID int, cycle int64, warpIdx int, class isa.Class, cluster int) {
	s := c.sm(smID)
	s.checks++
	if !class.Valid() {
		s.violate(cycle, "issue-class", "issue with invalid class %v", class)
		return
	}
	if s.pendCycle != cycle {
		if len(s.pend) > 0 {
			// The previous cycle's issues were never matched by a probe:
			// the hook wiring itself is broken.
			s.violate(cycle, "issue-probe-skew",
				"%d unmatched issue events from cycle %d", len(s.pend), s.pendCycle)
			s.pend = s.pend[:0]
		}
		s.pendCycle = cycle
	}
	s.pend = append(s.pend, issueRec{warp: warpIdx, class: class, cluster: cluster})
	s.issuedByClass[class]++
	s.issuedTotal++
}

// onProbe is the per-cycle heart of the checker: it validates the lane
// layout, advances every lane's shadow state machine, and matches the cycle's
// buffered issue events against the observed lane states.
func (c *Checker) onProbe(smID int, cycle int64, lanes []sim.LaneState) {
	s := c.sm(smID)

	// An SM steps every cycle from its first step until it drains, so probe
	// cycles must be contiguous.
	s.checks++
	if s.lastCycle >= 0 && cycle != s.lastCycle+1 {
		s.violate(cycle, "probe-continuity", "probe jumped from cycle %d to %d", s.lastCycle, cycle)
	}
	s.lastCycle = cycle
	s.ticks++

	if s.lanes == nil {
		aux := auxGatingKind(c.cfg)
		for _, ls := range lanes {
			kind := c.cfg.Gating
			if ls.Class == isa.SFU || ls.Class == isa.LDST {
				kind = aux
			}
			s.lanes = append(s.lanes, &laneChecker{
				class: ls.Class, cluster: ls.Cluster, kind: kind, idleRunMin: -1,
			})
		}
	}
	s.checks++
	if len(lanes) != len(s.lanes) {
		s.violate(cycle, "lane-layout", "probe with %d lanes, first probe had %d", len(lanes), len(s.lanes))
		s.pend = s.pend[:0]
		return
	}
	for i := range lanes {
		l := s.lanes[i]
		s.checks++
		if l.class != lanes[i].Class || l.cluster != lanes[i].Cluster {
			s.violate(cycle, "lane-layout", "lane %d is %s, first probe had %s",
				i, laneName(lanes[i].Class, lanes[i].Cluster), laneName(l.class, l.cluster))
			continue
		}
		c.laneCycle(s, l, cycle, lanes[i])
	}
	c.matchIssues(s, cycle, lanes)
}

// laneCycle advances one lane's shadow state machine by one observed cycle.
func (c *Checker) laneCycle(s *smChecker, l *laneChecker, cycle int64, ls sim.LaneState) {
	st := ls.State
	s.checks++
	if int(st) >= len(l.obs) {
		s.violate(cycle, "state-range", "%s in unknown state %v", laneName(l.class, l.cluster), st)
		return
	}
	l.obs[st]++
	if ls.Busy {
		l.busy++
	} else {
		l.idle++
	}

	// A gated or waking unit never has an instruction in its pipeline.
	s.checks++
	if ls.Busy && st != gating.StActive {
		s.violate(cycle, "busy-while-unpowered", "%s busy in state %s", laneName(l.class, l.cluster), st)
	}

	// Idle-run bookkeeping mirrors Controller.endIdleRun exactly (same
	// busy flag: the probe and the controller tick observe the same value).
	if ls.Busy {
		l.endIdleRun()
	} else {
		l.idleRun++
	}

	// Transition legality. The pre-state of a lane's first observed cycle is
	// always StActive (controllers power up active).
	prev := gating.StActive
	if l.hasPrev {
		prev = l.prev
	}
	bet, delay := c.cfg.BreakEven, c.cfg.WakeupDelay
	s.checks++
	switch prev {
	case gating.StActive:
		switch st {
		case gating.StActive:
			// powered, no event
		case gating.StUncompensated:
			l.gatingEvents++
			l.uncompRun = 1
		default:
			s.violate(cycle, "illegal-transition", "%s Active -> %s", laneName(l.class, l.cluster), st)
		}
	case gating.StUncompensated:
		switch st {
		case gating.StUncompensated:
			l.uncompRun++
			if l.uncompRun > bet {
				s.violate(cycle, "bet-overrun",
					"%s uncompensated for %d cycles, break-even is %d", laneName(l.class, l.cluster), l.uncompRun, bet)
			}
		case gating.StCompensated:
			if l.uncompRun != bet {
				s.violate(cycle, "bet-miscount",
					"%s compensated after %d uncompensated cycles, want exactly %d", laneName(l.class, l.cluster), l.uncompRun, bet)
			}
		case gating.StWakeup, gating.StActive:
			// Waking before break-even: legal only for conventional gating
			// (a negative event); blackout policies must serve their time.
			if isBlackout(l.kind) {
				s.violate(cycle, "blackout-early-wake",
					"%s (%s) woke %d cycles into a %d-cycle break-even window", laneName(l.class, l.cluster), l.kind, l.uncompRun, bet)
			}
			l.wakeups++
			l.beginWake(c, s, cycle, st, delay)
		}
	case gating.StCompensated:
		switch st {
		case gating.StCompensated:
			// compensated, no event
		case gating.StWakeup, gating.StActive:
			l.wakeups++
			l.beginWake(c, s, cycle, st, delay)
		default:
			s.violate(cycle, "illegal-transition", "%s Compensated -> %s", laneName(l.class, l.cluster), st)
		}
	case gating.StWakeup:
		switch st {
		case gating.StWakeup:
			l.wakeRun++
			if l.wakeRun > delay {
				s.violate(cycle, "wakeup-overrun",
					"%s waking for %d cycles, delay is %d", laneName(l.class, l.cluster), l.wakeRun, delay)
			}
		case gating.StActive:
			if l.wakeRun != delay {
				s.violate(cycle, "wakeup-latency",
					"%s became operational after %d wakeup cycles, want %d", laneName(l.class, l.cluster), l.wakeRun, delay)
			}
		default:
			s.violate(cycle, "illegal-transition", "%s Wakeup -> %s", laneName(l.class, l.cluster), st)
		}
	}
	l.prev = st
	l.hasPrev = true
}

// beginWake validates the first cycle of a wakeup sequence: with a zero
// wakeup delay the unit is operational immediately (never observed in
// StWakeup); otherwise it must pass through exactly delay StWakeup cycles.
func (l *laneChecker) beginWake(c *Checker, s *smChecker, cycle int64, st gating.State, delay int) {
	s.checks++
	if st == gating.StActive {
		if delay != 0 {
			s.violate(cycle, "wakeup-skipped",
				"%s went gated -> Active directly with wakeup delay %d", laneName(l.class, l.cluster), delay)
		}
		return
	}
	if delay == 0 {
		s.violate(cycle, "wakeup-spurious",
			"%s entered Wakeup with a zero wakeup delay", laneName(l.class, l.cluster))
	}
	l.wakeRun = 1
}

// endIdleRun closes the lane's in-progress idle run, mirroring the
// controller's histogram bookkeeping.
func (l *laneChecker) endIdleRun() {
	if l.idleRun == 0 {
		return
	}
	l.idleRuns++
	l.idleRunSum += uint64(l.idleRun)
	if l.idleRunMin < 0 || l.idleRun < l.idleRunMin {
		l.idleRunMin = l.idleRun
	}
	if l.idleRun > l.idleRunMax {
		l.idleRunMax = l.idleRun
	}
	l.idleRun = 0
}

// matchIssues correlates the cycle's buffered issue events with the observed
// lane states: every issue must land on a powered, now-busy lane, no warp may
// issue twice in a cycle, no lane may accept two issues in a cycle, and the
// SM may not exceed its scheduler count.
func (c *Checker) matchIssues(s *smChecker, cycle int64, lanes []sim.LaneState) {
	if len(s.pend) == 0 {
		return
	}
	s.checks++
	if s.pendCycle != cycle {
		s.violate(cycle, "issue-probe-skew",
			"%d issue events from cycle %d matched against probe cycle %d", len(s.pend), s.pendCycle, cycle)
		s.pend = s.pend[:0]
		return
	}
	s.checks++
	if len(s.pend) > c.cfg.NumSchedulers {
		s.violate(cycle, "issue-width",
			"%d issues in one cycle with %d schedulers", len(s.pend), c.cfg.NumSchedulers)
	}
	for i, ev := range s.pend {
		s.checks += 2
		for j := 0; j < i; j++ {
			if s.pend[j].warp == ev.warp {
				s.violate(cycle, "double-issue",
					"warp %d issued twice in one cycle (scoreboard breach)", ev.warp)
			}
			if s.pend[j].class == ev.class && s.pend[j].cluster == ev.cluster {
				s.violate(cycle, "port-double-issue",
					"%s accepted two issues in one cycle", laneName(ev.class, ev.cluster))
			}
		}
		found := false
		for k := range lanes {
			if lanes[k].Class != ev.class || lanes[k].Cluster != ev.cluster {
				continue
			}
			found = true
			s.checks += 2
			if lanes[k].State != gating.StActive {
				s.violate(cycle, "issue-to-gated",
					"warp %d issued to %s while it is %s", ev.warp, laneName(ev.class, ev.cluster), lanes[k].State)
			}
			if !lanes[k].Busy {
				s.violate(cycle, "issue-not-busy",
					"warp %d issued to %s but the pipe shows no occupancy", ev.warp, laneName(ev.class, ev.cluster))
			}
			break
		}
		s.checks++
		if !found {
			s.violate(cycle, "issue-unknown-lane",
				"issue to unprobed lane %s", laneName(ev.class, ev.cluster))
		}
	}
	s.pend = s.pend[:0]
}
