package sched

import (
	"testing"

	"warpedgates/internal/isa"
)

// benchReady builds 24 ready warps of mixed classes on the even slots.
func benchReady() *[isa.NumClasses]uint64 {
	var r [isa.NumClasses]uint64
	for i := 0; i < 24; i++ {
		r[i%int(isa.NumClasses)] |= 1 << uint(i*2)
	}
	return &r
}

// benchWalk starts p's order, walks all of it and issues the first warp.
func benchWalk(b *testing.B, p Policy, before func()) {
	ready := benchReady()
	var o Order
	for i := 0; i < b.N; i++ {
		before()
		p.Order(&o, ready, ^uint64(0))
		first := o.Next()
		for o.Next() >= 0 {
		}
		p.OnIssue(first)
	}
}

func BenchmarkTwoLevelOrder(b *testing.B) {
	benchWalk(b, NewTwoLevel(), func() {})
}

func BenchmarkGATESOrder(b *testing.B) {
	g := NewGATES()
	st := &SMState{NumWarps: 48}
	st.ACTV[isa.INT] = 6
	st.ACTV[isa.FP] = 6
	benchWalk(b, g, func() { g.UpdatePriority(st) })
}
