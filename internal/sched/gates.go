package sched

import (
	"math"

	"warpedgates/internal/isa"
)

// GATES is the paper's Gating-Aware Two-level Scheduler (§4). It keeps the
// two-level active/pending split but adds a dynamic type priority: one of
// INT/FP holds the highest priority while the other holds the lowest, with
// LDST then SFU fixed in between. The scheduler keeps issuing the
// highest-priority type while ready warps of that type exist, which clusters
// same-type instructions together and coalesces the execution-pipeline
// bubbles into long idle runs that power gating can exploit.
//
// Priority switches (paper §4.1, "dynamic priority switching"):
//   - when the highest type's active warp subset drains while the lowest
//     type's subset is non-empty, the two swap;
//   - with Coordinated Blackout, the priority also switches when every
//     cluster of the highest type is in blackout (§5);
//   - an optional MaxHold bound forces a swap after a fixed number of issue
//     cycles, the designer safety valve the paper mentions against
//     pathological starvation.
//
// One GATES instance is shared by both of an SM's scheduler slots, modeling
// the single per-SM priority register of the paper's Figure 7.
type GATES struct {
	roundRobin // round-robin pointer within a type
	highIsINT  bool
	// MaxHold, when positive, bounds how many consecutive cycles one type
	// may stay highest-priority. Zero disables the bound (paper default).
	MaxHold int
	hold    int

	switches uint64
}

// NewGATES returns a gating-aware scheduler with INT initially highest
// (paper §4.1: "We initialize INT as the highest priority").
func NewGATES() *GATES { return &GATES{roundRobin: roundRobin{last: -1}, highIsINT: true} }

// UpdatePriority applies the dynamic priority-switch rules. The simulator
// calls it once per SM per cycle, before either scheduler slot orders its
// ready warps.
func (g *GATES) UpdatePriority(st *SMState) {
	hi, lo := g.highLow()
	swap := false
	switch {
	case st.ACTV[hi] == 0 && st.ACTV[lo] > 0:
		// The highest-priority subset drained: give the other type a turn.
		swap = true
	case st.AllBlackout[hi] && st.RDY[lo] > 0:
		// Both clusters of the highest type are blacked out; issuing it is
		// impossible for at least break-even time, so switch (§5).
		swap = true
	case g.MaxHold > 0 && g.hold >= g.MaxHold && st.ACTV[lo] > 0:
		// Designer-set starvation bound.
		swap = true
	}
	if swap {
		g.highIsINT = !g.highIsINT
		g.hold = 0
		g.switches++
		return
	}
	g.hold++
}

// NextSwap returns k such that, under the fixed state st, the next k-1
// UpdatePriority calls leave the priority alone and the k-th swaps it, or
// math.MaxInt64 when none does. The drain and blackout rules fire at the
// next call or never; the MaxHold rule fires once the hold reaches the bound.
func (g *GATES) NextSwap(st *SMState) int64 {
	hi, lo := g.highLow()
	switch {
	case st.ACTV[hi] == 0 && st.ACTV[lo] > 0, st.AllBlackout[hi] && st.RDY[lo] > 0:
		return 1
	case g.MaxHold > 0 && st.ACTV[lo] > 0:
		return max(1, int64(g.MaxHold-g.hold)+1)
	}
	return math.MaxInt64
}

// Advance applies n UpdatePriority calls that swap nothing (n must stay below
// NextSwap for the state they see): each only extends the hold.
func (g *GATES) Advance(n int64) { g.hold += int(n) }

// highLow returns the current highest- and lowest-priority ALU types.
func (g *GATES) highLow() (hi, lo isa.Class) {
	if g.highIsINT {
		return isa.INT, isa.FP
	}
	return isa.FP, isa.INT
}

// Order walks the slot's ready warps by type priority [hi, LDST, SFU, lo]
// (paper §4.1: memory first among the middle classes), round-robin within a
// type.
func (g *GATES) Order(o *Order, ready *[isa.NumClasses]uint64, slot uint64) {
	hi, lo := g.highLow()
	o.groups = [isa.NumClasses]uint64{ready[hi] & slot, ready[isa.LDST] & slot, ready[isa.SFU] & slot, ready[lo] & slot}
	o.start(len(o.groups), g.last)
}

// HighPriority returns the class currently holding the highest priority.
func (g *GATES) HighPriority() isa.Class {
	hi, _ := g.highLow()
	return hi
}

// Switches returns how many dynamic priority switches have occurred.
func (g *GATES) Switches() uint64 { return g.switches }
