package gating

import (
	"fmt"
	"math/rand"
	"testing"

	"warpedgates/internal/config"
)

// controllerFingerprint renders every observable of a controller, histogram
// included, so batched and stepped twins can be compared exactly.
func controllerFingerprint(c *Controller) string {
	s := c.Stats()
	return fmt.Sprintf("state=%v gated=%t blackout=%t busy=%d idle=%d pow=%d gat=%d unc=%d comp=%d ev=%d wake=%d neg=%d crit=%d den=%d hist=%s",
		c.State(), c.Gated(), c.InBlackout(),
		s.BusyCycles, s.IdleCycles, s.PoweredCycles, s.GatedCycles,
		s.UncompCycles, s.CompCycles, s.GatingEvents, s.Wakeups,
		s.NegativeEvents, s.CriticalWakeups, s.DeniedWakeups,
		s.IdlePeriods.String())
}

// TestControllerAdvanceIdleMatchesTicks drives twin controllers into each
// state no idle tick leaves, batch-advances one while stepping the other,
// then runs a common busy/demand suffix so any divergence in hidden state
// (idle counter, idle-run length, first-compensated flag) surfaces in the
// fingerprints.
func TestControllerAdvanceIdleMatchesTicks(t *testing.T) {
	cases := []struct {
		name   string
		kind   config.GatingKind
		settle int // idle prefix that reaches a settled state
		batch  int64
	}{
		{"none-active", config.GateNone, 3, 1000},
		{"conv-compensated", config.GateConventional, 40, 1},
		{"conv-compensated-long", config.GateConventional, 40, 100000},
		{"naive-compensated", config.GateNaiveBlackout, 40, 517},
		{"coord-compensated", config.GateCoordBlackout, 40, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idle := FixedIdleDetect(5)
			batched := NewController(tc.kind, idle, 14, 3)
			stepped := NewController(tc.kind, idle, 14, 3)
			// Shared history before the batch: some work, then settle.
			for _, busy := range []bool{true, true, false, true} {
				batched.Tick(busy)
				stepped.Tick(busy)
			}
			tickIdle(batched, tc.settle)
			tickIdle(stepped, tc.settle)
			if k := batched.NextEvent(false); k <= tc.batch {
				t.Fatalf("prefix did not settle: state=%v next event in %d", batched.State(), k)
			}

			batched.Advance(0, tc.batch)
			tickIdle(stepped, int(tc.batch))
			if a, b := controllerFingerprint(batched), controllerFingerprint(stepped); a != b {
				t.Fatalf("post-batch divergence:\nbatched: %s\nstepped: %s", a, b)
			}

			// Common suffix: wake on demand (where possible), work, settle again.
			batched.RequestIssue()
			stepped.RequestIssue()
			batched.Tick(false)
			stepped.Tick(false)
			for i := 0; i < 10; i++ {
				busy := batched.CanIssue() && i%2 == 0
				batched.Tick(busy)
				stepped.Tick(busy)
			}
			batched.Finish()
			stepped.Finish()
			if a, b := controllerFingerprint(batched), controllerFingerprint(stepped); a != b {
				t.Fatalf("post-suffix divergence:\nbatched: %s\nstepped: %s", a, b)
			}
		})
	}
}

// TestControllerAdvanceIdleActiveInhibited covers the coordinated case the
// simulator relies on: an active CoordBlackout controller held on by per-cycle
// inhibit directives neither gates when stepped nor when batched.
func TestControllerAdvanceIdleActiveInhibited(t *testing.T) {
	idle := FixedIdleDetect(5)
	batched := NewController(config.GateCoordBlackout, idle, 14, 3)
	stepped := NewController(config.GateCoordBlackout, idle, 14, 3)
	for i := 0; i < 50; i++ {
		stepped.SetDirectives(true, false)
		stepped.Tick(false)
	}
	batched.SetDirectives(true, false)
	batched.Advance(0, 50)
	if a, b := controllerFingerprint(batched), controllerFingerprint(stepped); a != b {
		t.Fatalf("inhibited-active divergence:\nbatched: %s\nstepped: %s", a, b)
	}
}

// TestControllerAdvanceIdleRejectsTransients pins the contract that the
// closed form refuses a batch reaching a transient state's next transition:
// an uncompensated controller may advance up to, not across, break-even.
func TestControllerAdvanceIdleRejectsTransients(t *testing.T) {
	idle := FixedIdleDetect(2)
	c := NewController(config.GateConventional, idle, 14, 3)
	tickIdle(c, 3) // just gated: uncompensated
	if c.State() != StUncompensated {
		t.Fatalf("setup: state=%v", c.State())
	}
	k := c.NextEvent(false)
	if k != 13 {
		t.Fatalf("uncompensated with 13 cycles to break-even: NextEvent=%d", k)
	}
	c.Advance(0, k-1)
	defer func() {
		if recover() == nil {
			t.Fatal("Advance crossed the break-even transition")
		}
	}()
	c.Advance(0, 1)
}

// TestAdaptiveAdvanceIdleMatchesTicks checks the closed-form window recovery
// against per-cycle ticking across epoch boundaries, carried criticals,
// partial epochs and the min clamp.
func TestAdaptiveAdvanceIdleMatchesTicks(t *testing.T) {
	mk := func() config.Config {
		c := config.GTX480()
		c.AdaptiveIdleDetect = true
		c.EpochCycles = 50
		c.DecrementEpochs = 4
		return c
	}
	prefixes := []struct {
		cycles int
		crit   int // criticals injected on the first prefix cycle
	}{
		{0, 0},     // batch starts exactly on an epoch boundary
		{1, 0},     // barely into an epoch
		{49, 6},    // carried criticals end the first epoch with an increment
		{130, 0},   // mid-epoch with quiet history
		{349, 720}, // critical storm in the first epoch, then quiet history
	}
	batches := []int64{1, 49, 50, 51, 199, 200, 1000, 100000}
	for _, p := range prefixes {
		for _, n := range batches {
			name := fmt.Sprintf("prefix%d crit%d batch%d", p.cycles, p.crit, n)
			batched := NewAdaptiveIdleDetect(mk())
			stepped := NewAdaptiveIdleDetect(mk())
			for i := 0; i < p.cycles; i++ {
				crit := 0
				if i == 0 {
					crit = p.crit
				}
				batched.Tick(crit)
				stepped.Tick(crit)
			}
			batched.AdvanceIdle(n)
			for i := int64(0); i < n; i++ {
				stepped.Tick(0)
			}
			// Suffix: a critical storm must move both windows identically.
			for i := 0; i < 120; i++ {
				batched.Tick(1)
				stepped.Tick(1)
			}
			bi, bd, be := batched.Stats()
			si, sd, se := stepped.Stats()
			if batched.Value() != stepped.Value() || bi != si || bd != sd || be != se {
				t.Fatalf("%s: batched value=%d inc=%d dec=%d ep=%d, stepped value=%d inc=%d dec=%d ep=%d",
					name, batched.Value(), bi, bd, be, stepped.Value(), si, sd, se)
			}
		}
	}
}

// TestControllerNextEventAdvanceExact checks both closed forms in every
// state against per-cycle ticking: after a random history, random inputs are
// installed; NextEvent must name exactly the tick that first changes the
// state when those inputs repeat, and Advance over any shorter batch must
// leave the same counters as ticking through it.
func TestControllerNextEventAdvanceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := []config.GatingKind{config.GateNone, config.GateConventional,
		config.GateNaiveBlackout, config.GateCoordBlackout}
	seen := map[State]bool{}
	for trial := 0; trial < 4000; trial++ {
		kind := kinds[rng.Intn(len(kinds))]
		idle, bet, wake := rng.Intn(8), 1+rng.Intn(20), rng.Intn(6)
		batched := newTestCtrl(kind, idle, bet, wake)
		stepped := newTestCtrl(kind, idle, bet, wake)
		type in struct{ busy, demand, inhibit, force bool }
		install := func(c *Controller, x in) {
			if x.demand {
				c.RequestIssue()
			}
			c.SetDirectives(x.inhibit, x.force)
		}
		tick := func(c *Controller, x in) {
			install(c, x)
			c.Tick(x.busy)
		}
		draw := func() in {
			return in{busy: batched.CanIssue() && rng.Intn(3) == 0, demand: rng.Intn(4) == 0,
				inhibit: rng.Intn(5) == 0, force: rng.Intn(8) == 0}
		}
		for i, n := 0, rng.Intn(60); i < n; i++ {
			x := draw()
			tick(batched, x)
			tick(stepped, x)
		}
		x := draw()
		install(batched, x)
		state := batched.State()
		seen[state] = true
		k := batched.NextEvent(x.busy)
		n := int64(rng.Intn(300))
		if k != never && n > k-1 {
			n = k - 1
		}
		if x.busy {
			batched.Advance(n, 0)
		} else {
			batched.Advance(0, n)
		}
		for i := int64(0); i < n; i++ {
			tick(stepped, x)
			if stepped.State() != state {
				t.Fatalf("trial %d: %v/%v moved at tick %d of %d before NextEvent %d", trial, kind, state, i+1, n, k)
			}
		}
		if a, b := controllerFingerprint(batched), controllerFingerprint(stepped); a != b {
			t.Fatalf("trial %d: %v/%v inputs %+v batch %d:\nbatched: %s\nstepped: %s", trial, kind, state, x, n, a, b)
		}
		if k != never && n == k-1 {
			tick(stepped, x)
			if stepped.State() == state {
				t.Fatalf("trial %d: %v/%v inputs %+v: no transition at NextEvent %d", trial, kind, state, x, k)
			}
		}
	}
	for _, s := range []State{StActive, StUncompensated, StCompensated, StWakeup} {
		if !seen[s] {
			t.Errorf("state %v never exercised", s)
		}
	}
}

// TestNextEventAfterBusy checks the prediction made when an active unit
// starts an instruction against the controller after a real busy tick, for
// every gating kind, idle count and staged directive.
func TestNextEventAfterBusy(t *testing.T) {
	kinds := []config.GatingKind{config.GateNone, config.GateConventional, config.GateNaiveBlackout, config.GateCoordBlackout}
	for _, kind := range kinds {
		for idleRun := 0; idleRun < 5; idleRun++ {
			for _, dir := range []struct{ inhibit, force bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
				c := NewController(kind, FixedIdleDetect(5), 14, 3)
				for i := 0; i < idleRun; i++ {
					c.SetDirectives(true, false) // stay active while counting
					c.Tick(false)
				}
				c.SetDirectives(dir.inhibit, dir.force)
				got := c.NextEventAfterBusy()
				c.TickKeep(true)
				if want := c.NextEvent(false); got != want {
					t.Errorf("%v after %d idle, directives %+v: NextEventAfterBusy = %d, NextEvent after a busy tick = %d",
						kind, idleRun, dir, got, want)
				}
			}
		}
	}
}
