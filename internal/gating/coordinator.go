package gating

import (
	"fmt"

	"warpedgates/internal/config"
)

// Coordinator implements Coordinated Blackout (paper §5) across the two
// clusters of one execution-unit type (the two INT pipes or the two FP pipes
// of an SM's SP clusters). Once one cluster of a type is gated, the second
// cluster stops using the idle-detect window: it gates immediately when the
// type's active-warp-subset counter (ACTV) is zero, and refuses to gate while
// at least one warp of the type sits in the active subset.
type Coordinator struct {
	kind  config.GatingKind
	ctrls []*Controller
}

// NewCoordinator wires the clusters of one type together. Any number of
// clusters is accepted; the paper's machine has two.
func NewCoordinator(kind config.GatingKind, ctrls ...*Controller) *Coordinator {
	if len(ctrls) == 0 {
		panic("gating: coordinator needs at least one controller")
	}
	for i, c := range ctrls {
		if c == nil {
			panic(fmt.Sprintf("gating: coordinator controller %d is nil", i))
		}
	}
	return &Coordinator{kind: kind, ctrls: ctrls}
}

// PreTick installs this cycle's gating directives on each cluster before the
// controllers Tick. actv is the number of warps of this type currently in the
// active warp subset (the paper's INT_ACTV / FP_ACTV counter — deliberately
// not the ready counter, since a warp may be active but not yet ready).
func (co *Coordinator) PreTick(actv int) {
	if co.kind != config.GateCoordBlackout {
		return // only Coordinated Blackout modulates the idle-detect rule
	}
	gated := 0
	for _, c := range co.ctrls {
		if c.Gated() {
			gated++
		}
	}
	for i, c := range co.ctrls {
		if !c.CanIssue() && !c.Gated() {
			continue // waking up: no gating decision to make
		}
		peers := gated
		if c.Gated() {
			peers--
		}
		peerGated := peers > 0
		switch {
		case peerGated && actv == 0:
			// No warp of this type is even waiting: gate the second
			// cluster immediately, skipping idle-detect.
			c.SetDirectives(false, true)
		case peerGated:
			// A warp is waiting and will likely become ready soon; keep
			// one cluster of the type powered to serve it.
			c.SetDirectives(true, false)
		case actv > 0 && i == 0:
			// Neither cluster is gated yet. The paper's invariant —
			// "at least one of the two clusters will be always ON
			// whenever there is a warp in the associated active warp
			// subset" — must also hold at gating time: without this
			// directive both clusters can cross the idle-detect
			// threshold in the same cycle and black out together.
			// Cluster 0 (the consolidation target) is the one held on.
			c.SetDirectives(true, false)
		default:
			c.SetDirectives(false, false)
		}
	}
}

// AllInBlackout reports whether every cluster of the type is currently in a
// state the scheduler cannot issue to (gated with blackout semantics, or any
// gated state under conventional rules where wakeup still costs delay). GATES
// uses it to switch instruction priority when the entire highest-priority
// unit type is unavailable (paper §5: "switch instruction priority type if
// both execution units of the highest priority type are in blackout").
func (co *Coordinator) AllInBlackout() bool {
	for _, c := range co.ctrls {
		if !c.InBlackout() {
			return false
		}
	}
	return true
}
