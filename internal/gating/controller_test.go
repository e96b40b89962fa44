package gating

import (
	"testing"
	"testing/quick"

	"warpedgates/internal/config"
	"warpedgates/internal/stats"
)

// newTestCtrl builds a controller with fixed parameters.
func newTestCtrl(kind config.GatingKind, idleDetect, bet, wake int) *Controller {
	return NewController(kind, FixedIdleDetect(idleDetect), bet, wake)
}

// tickIdle advances n idle cycles.
func tickIdle(c *Controller, n int) {
	for i := 0; i < n; i++ {
		c.Tick(false)
	}
}

func TestNoGatingPolicyNeverGates(t *testing.T) {
	c := newTestCtrl(config.GateNone, 5, 14, 3)
	tickIdle(c, 1000)
	if c.Gated() {
		t.Fatal("GateNone controller gated")
	}
	st := c.Stats()
	if st.GatingEvents != 0 || st.PoweredCycles != 1000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConventionalGatesAfterIdleDetect(t *testing.T) {
	c := newTestCtrl(config.GateConventional, 5, 14, 3)
	tickIdle(c, 4)
	if c.Gated() {
		t.Fatal("gated before idle-detect")
	}
	tickIdle(c, 1) // 5th idle cycle: threshold reached
	if !c.Gated() {
		t.Fatal("not gated at idle-detect")
	}
	if c.State() != StUncompensated {
		t.Fatalf("state = %s, want Uncompensated", c.State())
	}
	if c.Stats().GatingEvents != 1 {
		t.Fatal("gating event not counted")
	}
}

func TestConventionalWakesFromUncompensated(t *testing.T) {
	c := newTestCtrl(config.GateConventional, 5, 14, 3)
	tickIdle(c, 6) // gated, 1 cycle into uncompensated
	c.RequestIssue()
	c.Tick(false)
	if c.State() != StWakeup {
		t.Fatalf("state = %s, want Wakeup", c.State())
	}
	st := c.Stats()
	if st.NegativeEvents != 1 || st.Wakeups != 1 {
		t.Fatalf("negative=%d wakeups=%d", st.NegativeEvents, st.Wakeups)
	}
	// Wakeup takes 3 cycles.
	tickIdle(c, 2)
	if c.CanIssue() {
		t.Fatal("issuable before wakeup delay elapsed")
	}
	tickIdle(c, 1)
	if !c.CanIssue() {
		t.Fatal("not issuable after wakeup delay")
	}
}

func TestBlackoutRefusesEarlyWakeup(t *testing.T) {
	for _, kind := range []config.GatingKind{config.GateNaiveBlackout, config.GateCoordBlackout} {
		c := newTestCtrl(kind, 5, 14, 3)
		tickIdle(c, 5) // gated
		if !c.InBlackout() {
			t.Fatalf("%s: not in blackout after gating", kind)
		}
		// Demand during the whole uncompensated window must be denied.
		for i := 0; i < 13; i++ {
			c.RequestIssue()
			c.Tick(false)
			if c.State() == StWakeup || c.State() == StActive {
				t.Fatalf("%s: woke during blackout at cycle %d", kind, i)
			}
		}
		st := c.Stats()
		if st.NegativeEvents != 0 {
			t.Fatalf("%s: blackout recorded negative events", kind)
		}
		if st.DeniedWakeups == 0 {
			t.Fatalf("%s: denied wakeups not counted", kind)
		}
	}
}

func TestBlackoutCriticalWakeup(t *testing.T) {
	c := newTestCtrl(config.GateNaiveBlackout, 5, 14, 3)
	tickIdle(c, 5) // gated at cycle 5
	// Demand pending every cycle; the uncompensated state lasts exactly BET
	// (14) cycles, after which the first compensated-cycle demand wakes the
	// unit and counts as critical.
	for i := 0; i < 14; i++ {
		c.RequestIssue()
		c.Tick(false)
	}
	if c.State() != StCompensated {
		t.Fatalf("state = %s, want Compensated after BET", c.State())
	}
	c.RequestIssue()
	c.Tick(false)
	if c.State() != StWakeup {
		t.Fatalf("state = %s, want Wakeup", c.State())
	}
	st := c.Stats()
	if st.CriticalWakeups != 1 {
		t.Fatalf("critical wakeups = %d, want 1", st.CriticalWakeups)
	}
}

func TestLateWakeupIsNotCritical(t *testing.T) {
	c := newTestCtrl(config.GateNaiveBlackout, 5, 14, 3)
	tickIdle(c, 5)
	tickIdle(c, 13) // BET elapses with no demand
	tickIdle(c, 4)  // linger compensated
	c.RequestIssue()
	c.Tick(false)
	st := c.Stats()
	if st.CriticalWakeups != 0 {
		t.Fatalf("late wakeup counted as critical")
	}
	if st.Wakeups != 1 {
		t.Fatalf("wakeups = %d", st.Wakeups)
	}
}

func TestBusyResetsIdleCounter(t *testing.T) {
	c := newTestCtrl(config.GateConventional, 5, 14, 3)
	tickIdle(c, 4)
	c.Tick(true) // busy resets
	tickIdle(c, 4)
	if c.Gated() {
		t.Fatal("gated although idle run was interrupted")
	}
	tickIdle(c, 1)
	if !c.Gated() {
		t.Fatal("not gated after full idle-detect window")
	}
}

func TestIdlePeriodHistogram(t *testing.T) {
	c := newTestCtrl(config.GateNone, 5, 14, 0)
	tickIdle(c, 3)
	c.Tick(true)
	tickIdle(c, 7)
	c.Tick(true)
	c.Finish()
	h := c.Stats().IdlePeriods
	if h.Total() != 2 || h.Count(3) != 1 || h.Count(7) != 1 {
		t.Fatalf("histogram = %s", h)
	}
}

func TestFinishClosesOpenRun(t *testing.T) {
	c := newTestCtrl(config.GateNone, 5, 14, 0)
	tickIdle(c, 9)
	c.Finish()
	if c.Stats().IdlePeriods.Count(9) != 1 {
		t.Fatal("open idle run not recorded by Finish")
	}
	// Finish is idempotent.
	c.Finish()
	if c.Stats().IdlePeriods.Total() != 1 {
		t.Fatal("Finish double-counted")
	}
}

func TestBusyWhileGatedPanics(t *testing.T) {
	c := newTestCtrl(config.GateConventional, 5, 14, 3)
	tickIdle(c, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("busy while gated did not panic")
		}
	}()
	c.Tick(true)
}

func TestZeroWakeupDelay(t *testing.T) {
	c := newTestCtrl(config.GateConventional, 2, 5, 0)
	tickIdle(c, 2)
	if !c.Gated() {
		t.Fatal("not gated")
	}
	c.RequestIssue()
	c.Tick(false)
	if !c.CanIssue() {
		t.Fatal("zero wakeup delay should make the unit immediately issuable")
	}
}

func TestForceGateDirective(t *testing.T) {
	c := newTestCtrl(config.GateCoordBlackout, 5, 14, 3)
	c.SetDirectives(false, true)
	c.Tick(false) // force-gated on the first idle cycle
	if !c.Gated() {
		t.Fatal("force directive ignored")
	}
}

func TestInhibitGateDirective(t *testing.T) {
	c := newTestCtrl(config.GateCoordBlackout, 2, 14, 3)
	for i := 0; i < 50; i++ {
		c.SetDirectives(true, false)
		c.Tick(false)
	}
	if c.Gated() {
		t.Fatal("inhibit directive ignored")
	}
	// Directives are single-cycle: without renewal the unit gates normally.
	c.Tick(false)
	if !c.Gated() {
		t.Fatal("controller did not gate after inhibit expired")
	}
}

func TestInhibitWinsOverForce(t *testing.T) {
	c := newTestCtrl(config.GateCoordBlackout, 2, 14, 3)
	c.SetDirectives(true, true)
	c.Tick(false)
	if c.Gated() {
		t.Fatal("inhibit should win over force")
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewController(config.GateNone, nil, 14, 3) },
		func() { newTestCtrl(config.GateNone, 5, 0, 3) },
		func() { newTestCtrl(config.GateNone, 5, 14, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid constructor args did not panic")
				}
			}()
			f()
		}()
	}
}

func TestStateStrings(t *testing.T) {
	names := map[State]string{
		StActive: "Active", StUncompensated: "Uncompensated",
		StCompensated: "Compensated", StWakeup: "Wakeup",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("State %d = %s", s, s)
		}
	}
}

// TestStateMachineInvariants drives a controller with random busy/demand
// traffic and checks the legality invariants of the paper's state machine on
// every transition.
func TestStateMachineInvariants(t *testing.T) {
	f := func(seed uint16, kindRaw, idRaw uint8) bool {
		kinds := []config.GatingKind{
			config.GateNone, config.GateConventional,
			config.GateNaiveBlackout, config.GateCoordBlackout,
		}
		kind := kinds[int(kindRaw)%len(kinds)]
		idleDetect := int(idRaw % 8)
		bet := 5
		wake := 2
		c := newTestCtrl(kind, idleDetect, bet, wake)

		rng := seed
		next := func() uint16 { rng = rng*25173 + 13849; return rng }

		gatedRun := 0
		for i := 0; i < 3000; i++ {
			prev := c.State()
			busy := next()%3 == 0 && prev == StActive
			if next()%4 == 0 {
				c.RequestIssue()
			}
			c.Tick(busy)
			cur := c.State()

			// Invariant 1: gated implies the policy allows gating at all.
			if kind == config.GateNone && cur != StActive {
				return false
			}
			// Invariant 2: blackout policies never wake before break-even.
			if (kind == config.GateNaiveBlackout || kind == config.GateCoordBlackout) &&
				prev == StUncompensated && cur == StWakeup {
				return false
			}
			// Invariant 3: track that uncompensated lasts at most BET cycles.
			if cur == StUncompensated {
				gatedRun++
				if gatedRun > bet {
					return false
				}
			} else {
				gatedRun = 0
			}
			// Invariant 4: legal transitions only.
			if !legalTransition(prev, cur) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// legalTransition encodes the edges of the paper's Figure 2c state machine
// (with the Blackout modification removing Uncompensated->Wakeup for
// blackout policies, checked separately).
func legalTransition(from, to State) bool {
	if from == to {
		return true
	}
	switch from {
	case StActive:
		return to == StUncompensated
	case StUncompensated:
		return to == StCompensated || to == StWakeup
	case StCompensated:
		return to == StWakeup
	case StWakeup:
		return to == StActive
	}
	return false
}

// TestEnergyAccountingConsistency checks that cycle counters partition time.
func TestEnergyAccountingConsistency(t *testing.T) {
	f := func(seed uint16) bool {
		c := newTestCtrl(config.GateConventional, 3, 6, 2)
		rng := seed
		next := func() uint16 { rng = rng*25173 + 13849; return rng }
		const n = 2000
		for i := 0; i < n; i++ {
			busy := next()%3 == 0 && c.State() == StActive
			if next()%5 == 0 {
				c.RequestIssue()
			}
			c.Tick(busy)
		}
		st := c.Stats()
		if st.BusyCycles+st.IdleCycles != n {
			return false
		}
		if st.PoweredCycles+st.GatedCycles != n {
			return false
		}
		return st.UncompCycles+st.CompCycles == st.GatedCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestShortRunCountsMatchHistogram drives idle runs of chosen lengths through
// a controller, below, at and past the short-run array's bound, and checks
// that what Stats reports — the flushed short-run counts plus the histogram —
// equals plain Histogram.Add over the same runs, with a Stats read mid-run
// and a run left open across it.
func TestShortRunCountsMatchHistogram(t *testing.T) {
	bound := len(Controller{}.shortRuns)
	runs := []int{1, 2, 1, bound - 1, bound, bound + 1, 3, bound - 1, 5 * bound, bound, 1, 2 * bound, 7}
	c := newTestCtrl(config.GateNone, 5, 14, 3)
	want := stats.NewHistogram()
	for i, n := range runs {
		c.Tick(true)
		for j := 0; j < n; j++ {
			c.Tick(false)
			if i == len(runs)/2 && j == n/2 {
				// Mid-run read: flushes the finished runs, not the open one.
				if got := c.Stats().IdlePeriods; !got.Equal(want) {
					t.Fatalf("mid-run Stats after %d runs: %s, want %s", i, got, want)
				}
			}
		}
		want.Add(n)
	}
	c.Tick(true)
	if got := c.Stats().IdlePeriods; !got.Equal(want) {
		t.Fatalf("Stats: %s, want %s", got, want)
	}
	if got := c.Stats().IdlePeriods; !got.Equal(want) {
		t.Fatalf("second Stats read: %s, want %s", got, want)
	}
}
