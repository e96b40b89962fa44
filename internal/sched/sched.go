// Package sched implements the two warp-scheduling policies the paper
// evaluates: the two-level warp scheduler of Gebhart et al. [12] (the paper's
// baseline) and GATES, the gating-aware two-level scheduler that is the
// paper's first contribution.
//
// Each cycle, each scheduler slot walks its ready warps (those in the active
// set whose next instruction has all operands ready) in the policy's issue
// order until one passes the structural and gating checks. The order is a
// walk over warp bitsets, never a materialised candidate list. Two policy
// instances per SM model Fermi's dual schedulers; GATES instances share
// per-SM priority state, matching the paper's single per-SM priority
// register.
package sched

import (
	"math/bits"

	"warpedgates/internal/isa"
)

// SMState is the per-cycle scheduler-visible SM state: the per-type counters
// the paper adds for GATES (ACTV and RDY, §6) plus blackout visibility for
// the priority-switch extension (§5).
type SMState struct {
	// ACTV counts warps in the active warp subset per type (incremented on
	// entry, decremented on exit — paper's INT_ACTV/FP_ACTV).
	ACTV [isa.NumClasses]int
	// RDY counts ready warps per type (paper's INT_RDY/FP_RDY/...).
	RDY [isa.NumClasses]int
	// AllBlackout reports that every cluster of a type is in blackout, so
	// issuing that type is impossible for at least the break-even time.
	AllBlackout [isa.NumClasses]bool
	// NumWarps is the SM warp-table size, for round-robin arithmetic.
	NumWarps int
}

// Policy orders a scheduler slot's issue attempts. Implementations may keep
// history (e.g. round-robin pointers) and are informed of every successful
// issue.
type Policy interface {
	// Order starts o on this cycle's issue order over the ready warps:
	// ready[c] holds the ready warps whose next instruction is of class c
	// (bit i = warp slot i), and slot masks the warps the slot owns.
	Order(o *Order, ready *[isa.NumClasses]uint64, slot uint64)
	// OnIssue notifies the policy that warp slot i was issued.
	OnIssue(i int)
}

// Order walks warp bitsets in issue priority: its groups in order and,
// within a group, the warps above the round-robin pointer ascending, then
// the rest ascending — the classic loose round-robin rotation. Walking a
// class's group in that order is exactly a stable sort of the rotated list
// by class rank, so no candidate list is built. The walk keeps its masks
// rotated right past the pointer, which makes that order plain ascending
// bit order.
//
// Warps can be skipped: Next passes over the warps of a Skip mask without
// returning them and only counts them (Passed), a popcount per stretch of
// the walk instead of a visit per warp.
type Order struct {
	groups  [isa.NumClasses]uint64
	n, next int    // groups in use; index of the next group to walk
	rot     int    // the pointer plus one: walk bit b is warp (b+rot)%64
	cur     uint64 // the current group's unvisited warps, rotated

	skip    [2]uint64 // the warps Next passes over, by kind, rotated
	skipAll uint64    // skip[0] | skip[1]
	passed  [2]int    // how many of them it passed
}

// start resets the walk over the first n groups with round-robin pointer
// last (-1 before any issue), with nothing skipped.
func (o *Order) start(n, last int) {
	o.n, o.next, o.cur, o.rot = n, 0, 0, last+1
	o.skip, o.skipAll, o.passed = [2]uint64{}, 0, [2]int{}
}

// Skip makes the rest of the walk pass over the warps in m, counting them
// under kind (0 or 1). A warp skipped under both kinds counts under 0.
func (o *Order) Skip(kind int, m uint64) {
	m = bits.RotateLeft64(m, -o.rot)
	o.skip[kind] |= m
	o.skipAll |= m
}

// Passed returns how many skipped warps of kind the walk has passed: those
// before the warp Next returned last, or all of them once it returned -1.
func (o *Order) Passed(kind int) int { return o.passed[kind] }

// pass counts the skipped warps in m, a stretch of the walk passed over.
func (o *Order) pass(m uint64) {
	o.passed[0] += bits.OnesCount64(m & o.skip[0])
	o.passed[1] += bits.OnesCount64(m & o.skip[1] &^ o.skip[0])
}

// Next returns the next warp slot in issue order that is not skipped, or -1
// when none is left.
func (o *Order) Next() int {
	cur, next, skip := o.cur, o.next, o.skipAll
	for {
		if m := cur &^ skip; m != 0 {
			i := uint(bits.TrailingZeros64(m))
			if below := cur & (1<<i - 1); below != 0 {
				o.pass(below)
			}
			o.cur, o.next = cur&^(2<<i-1), next
			return (int(i) + o.rot) & 63
		}
		if cur != 0 {
			o.pass(cur)
		}
		for next < o.n && o.groups[next] == 0 {
			next++
		}
		if next == o.n {
			o.cur, o.next = 0, next
			return -1
		}
		cur = bits.RotateLeft64(o.groups[next], -o.rot)
		next++
	}
}

// roundRobin is the loose round-robin rotation: TwoLevel's whole order, and
// GATES's order within a type. As a policy it is one group of every ready
// warp, rotated after the last issue.
type roundRobin struct {
	last int
}

// Order walks the slot's ready warps in rotated warp order.
func (p *roundRobin) Order(o *Order, ready *[isa.NumClasses]uint64, slot uint64) {
	o.groups[0] = (ready[isa.INT] | ready[isa.FP] | ready[isa.SFU] | ready[isa.LDST]) & slot
	o.start(1, p.last)
}

// OnIssue records the issued warp for the next rotation.
func (p *roundRobin) OnIssue(i int) { p.last = i }

// TwoLevel is the paper's baseline scheduler: warps waiting on long-latency
// events live in a pending set (enforced by the simulator — they are never
// ready), and ready warps issue greedily in loose round-robin order
// without regard to instruction type. The greedy interspersing of types is
// precisely what produces the short idle periods of paper Figure 3a.
type TwoLevel struct{ roundRobin }

// NewTwoLevel returns a two-level baseline policy.
func NewTwoLevel() *TwoLevel { return &TwoLevel{roundRobin{last: -1}} }

// ensure interface conformance.
var (
	_ Policy = (*TwoLevel)(nil)
	_ Policy = (*GATES)(nil)
)
