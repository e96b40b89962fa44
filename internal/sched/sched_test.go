package sched

import (
	"testing"

	"warpedgates/internal/isa"
)

// readyOf builds per-class ready masks from (warp slot, class) pairs.
func readyOf(warps ...any) *[isa.NumClasses]uint64 {
	var r [isa.NumClasses]uint64
	for k := 0; k < len(warps); k += 2 {
		r[warps[k+1].(isa.Class)] |= 1 << uint(warps[k].(int))
	}
	return &r
}

// walk returns the warp slots a policy's order visits, in order.
func walk(p Policy, ready *[isa.NumClasses]uint64, slot uint64) []int {
	var o Order
	p.Order(&o, ready, slot)
	var out []int
	for i := o.Next(); i >= 0; i = o.Next() {
		out = append(out, i)
	}
	return out
}

// rr returns a round-robin policy whose pointer is last.
func rr(last int) *TwoLevel { return &TwoLevel{roundRobin{last: last}} }

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRotateBasic(t *testing.T) {
	p := rr(2)
	ready := readyOf(0, isa.INT, 2, isa.INT, 5, isa.INT, 9, isa.INT)
	if got := walk(p, ready, ^uint64(0)); !equalInts(got, []int{5, 9, 0, 2}) {
		t.Fatalf("order after 2 = %v", got)
	}
}

func TestRotateEdgeCases(t *testing.T) {
	ready := readyOf(3, isa.INT, 7, isa.INT)
	// Pointer before all, after all, and at the top slot: ascending order.
	for _, last := range []int{-1, 7, 63} {
		if got := walk(rr(last), ready, ^uint64(0)); !equalInts(got, []int{3, 7}) {
			t.Fatalf("order after %d = %v", last, got)
		}
	}
	// A single warp, an empty ready set, and a slot owning none of the
	// ready warps.
	if got := walk(rr(1), readyOf(1, isa.FP), ^uint64(0)); !equalInts(got, []int{1}) {
		t.Fatalf("single warp order = %v", got)
	}
	if got := walk(rr(5), readyOf(), ^uint64(0)); len(got) != 0 {
		t.Fatalf("empty order = %v", got)
	}
	if got := walk(rr(-1), ready, 1<<4); len(got) != 0 {
		t.Fatalf("foreign slot order = %v", got)
	}
}

func TestTwoLevelRoundRobin(t *testing.T) {
	p := NewTwoLevel()
	ready := readyOf(1, isa.INT, 4, isa.FP, 8, isa.LDST)
	got := walk(p, ready, ^uint64(0))
	if got[0] != 1 {
		t.Fatalf("fresh scheduler should start from lowest warp, got %d", got[0])
	}
	p.OnIssue(got[0])
	if got := walk(p, ready, ^uint64(0)); got[0] != 4 {
		t.Fatalf("after issuing warp 1, next should be 4, got %d", got[0])
	}
}

func TestTwoLevelIgnoresType(t *testing.T) {
	// The baseline greedily intersperses types: the order depends only on
	// warp order, never on instruction class (the paper's §3 critique).
	p := NewTwoLevel()
	ready := readyOf(0, isa.FP, 1, isa.INT, 2, isa.FP)
	if got := walk(p, ready, ^uint64(0)); !equalInts(got, []int{0, 1, 2}) {
		t.Fatalf("two-level reordered by type: %v", got)
	}
}

// TestLRRBehavesLikeRoundRobin checks TwoLevel's loose round-robin (LRR)
// rotation: after a warp issues, the next walk starts above it.
func TestLRRBehavesLikeRoundRobin(t *testing.T) {
	p := NewTwoLevel()
	ready := readyOf(0, isa.INT, 3, isa.FP)
	p.OnIssue(walk(p, ready, ^uint64(0))[0])
	if got := walk(p, ready, ^uint64(0)); got[0] != 3 {
		t.Fatalf("TwoLevel did not rotate: %v", got)
	}
}
