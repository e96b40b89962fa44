package sched

import (
	"fmt"
	"testing"

	"warpedgates/internal/isa"
)

// TestGATESAdvanceIdleMatchesUpdateLoop checks the closed-form priority
// advance against per-call UpdatePriority under every fixed state a stalled
// SM can hold: NextSwap must name exactly the call that first swaps, and
// Advance over the calls before it must leave the same hold. The states
// cover the drain rule, the blackout rule (live only with ready warps of the
// lower type), MaxHold from every starting hold value, and no rule at all.
func TestGATESAdvanceIdleMatchesUpdateLoop(t *testing.T) {
	var states []SMState
	for _, actv := range [][2]int{{0, 0}, {3, 0}, {0, 2}, {3, 2}} {
		for _, rdyLo := range []int{0, 1} {
			for _, blackout := range []bool{false, true} {
				st := SMState{NumWarps: 48}
				st.ACTV[isa.INT], st.ACTV[isa.FP] = actv[0], actv[1]
				st.RDY[isa.INT], st.RDY[isa.FP] = rdyLo, rdyLo
				st.AllBlackout[isa.INT], st.AllBlackout[isa.FP] = blackout, blackout
				states = append(states, st)
			}
		}
	}
	for _, maxHold := range []int{0, 1, 3, 7} {
		for _, preCalls := range []int{0, 1, 2, 5, 9} {
			for _, st := range states {
				batched := NewGATES()
				batched.MaxHold = maxHold
				stepped := NewGATES()
				stepped.MaxHold = maxHold
				// Shared history: some calls under a busy state so hold
				// and orientation start away from their zero values.
				busy := &SMState{ACTV: [isa.NumClasses]int{isa.INT: 1, isa.FP: 1}, NumWarps: 48}
				for i := 0; i < preCalls; i++ {
					batched.UpdatePriority(busy)
					stepped.UpdatePriority(busy)
				}
				name := fmt.Sprintf("maxhold=%d pre=%d st=%+v", maxHold, preCalls, st)
				k := batched.NextSwap(&st)
				n := min(k-1, 1000)
				batched.Advance(n)
				for i := int64(0); i < n; i++ {
					stepped.UpdatePriority(&st)
				}
				if stepped.Switches() != batched.Switches() {
					t.Fatalf("%s: swapped within %d calls of NextSwap %d", name, n, k)
				}
				if batched.hold != stepped.hold || batched.HighPriority() != stepped.HighPriority() {
					t.Fatalf("%s: hold %d/%v != %d/%v", name, batched.hold, batched.HighPriority(),
						stepped.hold, stepped.HighPriority())
				}
				if n == k-1 {
					stepped.UpdatePriority(&st)
					if stepped.Switches() == batched.Switches() {
						t.Fatalf("%s: no swap at NextSwap %d", name, k)
					}
				}
			}
		}
	}
}
