// Package gating implements the power-gating controllers evaluated in the
// paper: conventional power gating (Hu et al. [13]), the paper's Blackout
// scheme (no wakeup before break-even time), Coordinated Blackout across the
// two clusters of an execution-unit type, and the Adaptive idle-detect
// mechanism that tunes the idle-detect window from critical-wakeup counts.
//
// One Controller drives one gating domain (e.g. the INT pipes of SP cluster 0
// behind a single sleep transistor). The simulator calls RequestIssue during
// the issue stage whenever a ready instruction wants a gated unit, and Tick
// with the unit's busy/idle status. Every cycle is ticked once: a run of
// cycles with the same inputs may instead be applied at once with Advance,
// up to the next event NextEvent predicts.
package gating

import (
	"fmt"
	"math"

	"warpedgates/internal/config"
	"warpedgates/internal/stats"
)

// State is the power-gating controller state (paper Figure 2c).
type State uint8

// Controller states. StActive corresponds to the paper's "Idle_detect" state:
// powered and counting idle cycles.
const (
	StActive State = iota
	StUncompensated
	StCompensated
	StWakeup
)

// String names the state.
func (s State) String() string {
	switch s {
	case StActive:
		return "Active"
	case StUncompensated:
		return "Uncompensated"
	case StCompensated:
		return "Compensated"
	case StWakeup:
		return "Wakeup"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Counters are one gating domain's scalar counters. Stats and the
// simulator's device-wide sums embed them, so this is the one list.
type Counters struct {
	BusyCycles    uint64
	IdleCycles    uint64 // cycles with no instruction in the unit (any state)
	PoweredCycles uint64 // cycles consuming static power (Active + Wakeup)
	GatedCycles   uint64 // cycles with the sleep switch off
	UncompCycles  uint64 // gated cycles spent before break-even
	CompCycles    uint64 // gated cycles spent after break-even (Fig. 8b)

	GatingEvents    uint64 // sleep-switch activations (each charges E_ovh)
	Wakeups         uint64 // transitions into StWakeup (Fig. 8c)
	NegativeEvents  uint64 // wakeups taken from the uncompensated state
	CriticalWakeups uint64 // wakeups at the first compensated cycle (Fig. 6)
	DeniedWakeups   uint64 // demand arriving during blackout that had to wait
}

// fields returns a pointer to every counter, in declaration order.
func (c *Counters) fields() [11]*uint64 {
	return [...]*uint64{&c.BusyCycles, &c.IdleCycles, &c.PoweredCycles,
		&c.GatedCycles, &c.UncompCycles, &c.CompCycles, &c.GatingEvents,
		&c.Wakeups, &c.NegativeEvents, &c.CriticalWakeups, &c.DeniedWakeups}
}

// Add adds o's counters to c.
func (c *Counters) Add(o *Counters) {
	dst, src := c.fields(), o.fields()
	for i := range dst {
		*dst[i] += *src[i]
	}
}

// Update replaces every counter v by f(v), in declaration order.
func (c *Counters) Update(f func(uint64) uint64) {
	for _, p := range c.fields() {
		*p = f(*p)
	}
}

// Stats aggregates everything the paper's figures need from one gating domain.
type Stats struct {
	Counters

	// IdlePeriods is the distribution of maximal idle-run lengths (Fig. 3).
	IdlePeriods *stats.Histogram
}

// Controller is the per-domain power-gating state machine.
type Controller struct {
	kind        config.GatingKind
	idleDetect  *AdaptiveIdleDetect // read every cycle, so it can retune the window
	breakEven   int
	wakeupDelay int

	state   State
	idleCtr int // consecutive idle cycles while Active
	betCtr  int // remaining cycles to break-even while gated
	wakeCtr int // remaining wakeup cycles

	curIdleRun     int  // length of the in-progress idle run
	firstCompCycle bool // true during the first cycle spent compensated

	// next collects the demand and directives for the coming Tick, which
	// NextEvent and Advance replay.
	next tickInputs

	st Stats

	// shortRuns[n] counts the finished idle runs of n < len(shortRuns)
	// cycles not yet added to the histogram. About 98% of the runs on the
	// paper's benchmarks are that short, and an array increment is far
	// cheaper than a histogram insert; Stats flushes the counts. Last, so
	// the fields every tick reads share cache lines.
	shortRuns [256]uint64
}

// tickInputs are the inputs a Tick takes besides the busy flag: whether a
// ready instruction wanted the unit, and the coordinator's directives
// (inhibit wins over force).
type tickInputs struct {
	demand, inhibit, force bool
}

// never is the NextEvent of a state that the replayed inputs cannot change.
const never = math.MaxInt64

// NewController builds a controller for the given policy. idleDetect's window
// is read every cycle, so an adaptive one can serve the two clusters of a
// type; FixedIdleDetect gives a window that stays put. breakEven and
// wakeupDelay are in cycles.
func NewController(kind config.GatingKind, idleDetect *AdaptiveIdleDetect, breakEven, wakeupDelay int) *Controller {
	if idleDetect == nil {
		panic("gating: nil idleDetect")
	}
	if breakEven <= 0 {
		panic(fmt.Sprintf("gating: breakEven must be positive, got %d", breakEven))
	}
	if wakeupDelay < 0 {
		panic(fmt.Sprintf("gating: wakeupDelay must be non-negative, got %d", wakeupDelay))
	}
	return &Controller{
		kind:        kind,
		idleDetect:  idleDetect,
		breakEven:   breakEven,
		wakeupDelay: wakeupDelay,
		state:       StActive,
		st:          Stats{IdlePeriods: stats.NewHistogram()},
	}
}

// State returns the current controller state.
func (c *Controller) State() State { return c.state }

// Gated reports whether the sleep switch is off (unit consuming ~no leakage).
func (c *Controller) Gated() bool {
	return c.state == StUncompensated || c.state == StCompensated
}

// InBlackout reports whether the unit is gated and the policy forbids waking
// it right now. Conventional gating never blacks out; Blackout policies do
// until break-even has passed.
func (c *Controller) InBlackout() bool {
	if c.state != StUncompensated {
		return false
	}
	return c.kind == config.GateNaiveBlackout || c.kind == config.GateCoordBlackout
}

// CanIssue reports whether an instruction may be issued to the unit this
// cycle: only a fully powered unit accepts work.
func (c *Controller) CanIssue() bool { return c.state == StActive }

// RequestIssue tells the controller a ready instruction wanted this unit this
// cycle while CanIssue() was false (or true — harmless). The demand is
// consumed by the next Tick and may trigger a wakeup, policy permitting.
func (c *Controller) RequestIssue() { c.next.demand = true }

// SetDirectives installs the coordinator's per-cycle gating directives; both
// are cleared by Tick (or ClearInputs). inhibit wins over force.
func (c *Controller) SetDirectives(inhibit, force bool) {
	c.next.inhibit = inhibit
	c.next.force = force
}

// ClearInputs drops the demand and directives installed for the coming Tick.
func (c *Controller) ClearInputs() { c.next = tickInputs{} }

// Tick advances the state machine by one cycle. busy reports whether any
// instruction occupied the unit's pipeline this cycle. Every simulated cycle
// is ticked exactly once — by Tick, TickKeep or Advance — after the issue
// stage.
func (c *Controller) Tick(busy bool) {
	c.TickKeep(busy)
	c.next = tickInputs{}
}

// TickKeep is Tick for a caller that stages the inputs of a run of cycles:
// it leaves the demand and directives installed for the ticks after it.
func (c *Controller) TickKeep(busy bool) {
	in := c.next
	if busy {
		c.st.BusyCycles++
	} else {
		c.st.IdleCycles++
	}

	switch c.state {
	case StActive:
		c.st.PoweredCycles++
		if busy {
			c.endIdleRun()
			c.idleCtr = 0
			break
		}
		c.curIdleRun++
		c.idleCtr++
		if c.kind == config.GateNone {
			break
		}
		shouldGate := c.idleCtr >= c.idleDetect.value
		if in.force {
			shouldGate = true
		}
		if in.inhibit {
			shouldGate = false
		}
		if shouldGate {
			c.state = StUncompensated
			c.betCtr = c.breakEven
			c.st.GatingEvents++
		}

	case StUncompensated:
		if busy {
			panic("gating: unit busy while gated")
		}
		c.st.GatedCycles++
		c.st.UncompCycles++
		c.curIdleRun++
		c.betCtr--
		// Conventional gating wakes on demand even before break-even,
		// paying for overhead it never recoups (a "negative" event).
		if in.demand && c.kind == config.GateConventional {
			c.st.NegativeEvents++
			c.beginWakeup()
			break
		}
		if in.demand {
			c.st.DeniedWakeups++
		}
		if c.betCtr <= 0 {
			c.state = StCompensated
			c.firstCompCycle = true
		}

	case StCompensated:
		if busy {
			panic("gating: unit busy while gated")
		}
		c.st.GatedCycles++
		c.st.CompCycles++
		c.curIdleRun++
		if in.demand {
			if c.firstCompCycle {
				// The instruction was waiting for the blackout to end:
				// the paper's critical wakeup (§5.1).
				c.st.CriticalWakeups++
			}
			c.beginWakeup()
			break
		}
		c.firstCompCycle = false

	case StWakeup:
		if busy {
			panic("gating: unit busy while waking up")
		}
		// The unit burns static power during wakeup but does no work.
		c.st.PoweredCycles++
		c.curIdleRun++
		c.wakeCtr--
		if c.wakeCtr <= 0 {
			c.state = StActive
			c.idleCtr = 0
		}
	}
}

// beginWakeup starts the wakeup sequence; with a zero wakeup delay the unit
// becomes operational next cycle.
func (c *Controller) beginWakeup() {
	c.st.Wakeups++
	c.firstCompCycle = false
	if c.wakeupDelay == 0 {
		c.state = StActive
		c.idleCtr = 0
		return
	}
	c.state = StWakeup
	c.wakeCtr = c.wakeupDelay
}

// NextEvent returns k such that ticking with the installed demand and
// directives and the given busy flag, over and over, leaves the state
// unchanged for k-1 ticks and changes it on the k-th, or math.MaxInt64 when
// no number of such ticks can. It is exact in every state: Active counts
// idle cycles up to the idle-detect value (unless busy, ungated or
// inhibited; a force directive gates at once), Uncompensated counts down to
// break-even (a conventional unit wakes at once on demand), Compensated
// waits for demand, and Wakeup counts down its delay. The idle-detect value
// is read once, so the caller must ask again after it moves.
func (c *Controller) NextEvent(busy bool) int64 {
	in := c.next
	switch c.state {
	case StActive:
		if busy {
			return never
		}
		return c.nextGating(c.idleCtr)
	case StUncompensated:
		if in.demand && c.kind == config.GateConventional {
			return 1
		}
		return max(1, int64(c.betCtr))
	case StCompensated:
		if in.demand {
			return 1
		}
		return never
	default:
		return max(1, int64(c.wakeCtr))
	}
}

// NextEventAfterBusy is NextEvent(false) of an active controller once a
// busy tick has reset its idle count: for a pipe that just started an
// instruction, the idle ticks after its drain that reach the next event.
func (c *Controller) NextEventAfterBusy() int64 { return c.nextGating(0) }

// nextGating is NextEvent(false) of an active controller that has counted
// idle idle cycles.
func (c *Controller) nextGating(idle int) int64 {
	switch {
	case c.next.inhibit || c.kind == config.GateNone:
		return never
	case c.next.force:
		return 1
	}
	return max(1, int64(c.idleDetect.value-idle))
}

// Advance applies busy busy ticks and then idle idle ticks with the
// installed demand and directives in closed form, bit-identical to
// installing them and calling Tick(true) busy times and Tick(false) idle
// times, and leaves them installed. No state change may fall inside the
// batch: busy ticks need an active unit, which they leave active, and idle
// must stay below the NextEvent(false) the busy ticks leave.
func (c *Controller) Advance(busy, idle int64) {
	if busy > 0 {
		if c.state != StActive {
			panic(fmt.Sprintf("gating: unit busy while %v", c.state))
		}
		c.st.BusyCycles += uint64(busy)
		c.st.PoweredCycles += uint64(busy)
		c.endIdleRun()
		c.idleCtr = 0
	}
	if idle <= 0 {
		return
	}
	if idle >= c.NextEvent(false) {
		panic(fmt.Sprintf("gating: Advance(%d, %d) crosses a %v transition", busy, idle, c.state))
	}
	c.st.IdleCycles += uint64(idle)
	c.curIdleRun += int(idle)
	switch c.state {
	case StActive:
		c.st.PoweredCycles += uint64(idle)
		c.idleCtr += int(idle)
	case StUncompensated:
		c.st.GatedCycles += uint64(idle)
		c.st.UncompCycles += uint64(idle)
		c.betCtr -= int(idle)
		if c.next.demand {
			c.st.DeniedWakeups += uint64(idle)
		}
	case StCompensated:
		c.st.GatedCycles += uint64(idle)
		c.st.CompCycles += uint64(idle)
		c.firstCompCycle = false
	case StWakeup:
		c.st.PoweredCycles += uint64(idle)
		c.wakeCtr -= int(idle)
	}
}

// endIdleRun closes the in-progress idle run and records it.
func (c *Controller) endIdleRun() {
	if n := c.curIdleRun; n > 0 {
		c.curIdleRun = 0
		if n < len(c.shortRuns) {
			c.shortRuns[n]++
		} else {
			c.st.IdlePeriods.Add(n)
		}
	}
}

// Finish closes any open idle run at end of simulation so the histogram
// accounts for every idle cycle.
func (c *Controller) Finish() { c.endIdleRun() }

// Stats returns a snapshot of the controller's counters, first adding the
// short idle runs counted since the last call to the histogram. The
// histogram is shared, not copied; callers must not mutate it.
func (c *Controller) Stats() Stats {
	c.st.IdlePeriods.AddCounts(c.shortRuns[:])
	c.shortRuns = [256]uint64{}
	return c.st
}

// CriticalWakeups returns the cumulative critical-wakeup count — the one
// counter the adaptive idle-detect reads every cycle, without copying Stats.
func (c *Controller) CriticalWakeups() uint64 { return c.st.CriticalWakeups }

// BreakEven returns the configured break-even time in cycles.
func (c *Controller) BreakEven() int { return c.breakEven }
