package gating

import (
	"testing"

	"warpedgates/internal/config"
)

// gatedCtrl returns a controller already in the uncompensated (gated) state.
func gatedCtrl(kind config.GatingKind) *Controller {
	c := newTestCtrl(kind, 2, 10, 3)
	tickIdle(c, 2)
	if !c.Gated() {
		panic("setup: controller not gated")
	}
	return c
}

func TestCoordinatorOnlyActsForCoordBlackout(t *testing.T) {
	a := newTestCtrl(config.GateNaiveBlackout, 2, 10, 3)
	b := gatedCtrl(config.GateNaiveBlackout)
	co := NewCoordinator(config.GateNaiveBlackout, a, b)
	co.PreTick(0) // would force-gate under coordination
	a.Tick(false) // first idle cycle: naive policy needs idle-detect (2)
	if a.Gated() {
		t.Fatal("naive blackout coordinator applied directives")
	}
}

func TestCoordinatorForceGatesSecondClusterWhenNoWork(t *testing.T) {
	a := newTestCtrl(config.GateCoordBlackout, 5, 10, 3)
	b := gatedCtrl(config.GateCoordBlackout)
	co := NewCoordinator(config.GateCoordBlackout, a, b)
	// Peer gated and ACTV == 0: the second cluster gates immediately,
	// without waiting for idle-detect (paper §5).
	co.PreTick(0)
	a.Tick(false)
	if !a.Gated() {
		t.Fatal("second cluster not force-gated with empty active subset")
	}
}

func TestCoordinatorInhibitsSecondClusterWhileWorkWaits(t *testing.T) {
	a := newTestCtrl(config.GateCoordBlackout, 2, 10, 3)
	b := gatedCtrl(config.GateCoordBlackout)
	co := NewCoordinator(config.GateCoordBlackout, a, b)
	// Peer gated and a warp waiting: the second cluster must stay powered
	// even far beyond its idle-detect window.
	for i := 0; i < 40; i++ {
		co.PreTick(3)
		a.Tick(false)
		b.Tick(false)
		if a.Gated() {
			t.Fatalf("second cluster gated at cycle %d despite waiting warp", i)
		}
	}
}

func TestCoordinatorSecondClusterGatesWhileFirstHeldOn(t *testing.T) {
	a := newTestCtrl(config.GateCoordBlackout, 3, 10, 3)
	b := newTestCtrl(config.GateCoordBlackout, 3, 10, 3)
	co := NewCoordinator(config.GateCoordBlackout, a, b)
	// Neither gated and warps waiting: the second cluster gates by plain
	// idle-detect while the first (the consolidation target) is held on —
	// "at least one of the two clusters will be always ON whenever there
	// is a warp in the associated active warp subset" (paper §5).
	for i := 0; i < 3; i++ {
		co.PreTick(5)
		a.Tick(false)
		b.Tick(false)
	}
	if a.Gated() {
		t.Fatal("primary cluster gated while warps were waiting")
	}
	if !b.Gated() {
		t.Fatal("secondary idle cluster did not gate after idle-detect")
	}
}

func TestCoordinatorBothGateWhenSubsetEmpty(t *testing.T) {
	a := newTestCtrl(config.GateCoordBlackout, 3, 10, 3)
	b := newTestCtrl(config.GateCoordBlackout, 3, 10, 3)
	co := NewCoordinator(config.GateCoordBlackout, a, b)
	// ACTV == 0: no warp of the type waits anywhere, so nothing holds the
	// primary cluster on; the idle-detect rule applies to both, and once
	// one gates the other follows immediately (force directive).
	for i := 0; i < 4; i++ {
		co.PreTick(0)
		a.Tick(false)
		b.Tick(false)
	}
	if !a.Gated() || !b.Gated() {
		t.Fatalf("clusters not both gated with empty subset: a=%v b=%v", a.State(), b.State())
	}
}

func TestAllInBlackout(t *testing.T) {
	a := gatedCtrl(config.GateCoordBlackout)
	b := gatedCtrl(config.GateCoordBlackout)
	co := NewCoordinator(config.GateCoordBlackout, a, b)
	if !co.AllInBlackout() {
		t.Fatal("both gated-uncompensated clusters should report blackout")
	}
	// Drain a past break-even: it leaves blackout (wakeable), so not all in
	// blackout anymore.
	for i := 0; i < 10; i++ {
		a.Tick(false)
	}
	if a.InBlackout() {
		t.Fatal("cluster still in blackout after break-even")
	}
	if co.AllInBlackout() {
		t.Fatal("AllInBlackout should be false once one cluster is wakeable")
	}
}

func TestCoordinatorConstructorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty coordinator accepted")
		}
	}()
	NewCoordinator(config.GateCoordBlackout)
}

func TestCoordinatorNilControllerRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil controller accepted")
		}
	}()
	NewCoordinator(config.GateCoordBlackout, nil)
}
