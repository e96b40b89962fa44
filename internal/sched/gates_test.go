package sched

import (
	"testing"
	"testing/quick"

	"warpedgates/internal/isa"
)

func TestGATESInitialPriorityIsINT(t *testing.T) {
	g := NewGATES()
	if g.HighPriority() != isa.INT {
		t.Fatalf("initial high priority = %s, want INT (paper §4.1)", g.HighPriority())
	}
}

func TestGATESOrdering(t *testing.T) {
	g := NewGATES()
	ready := readyOf(0, isa.FP, 1, isa.SFU, 2, isa.LDST, 3, isa.INT, 4, isa.FP)
	// Expected rank order with INT high: INT, LDST, SFU, FP.
	if got := walk(g, ready, ^uint64(0)); !equalInts(got, []int{3, 2, 1, 0, 4}) {
		t.Fatalf("GATES order = %v, want INT, LDST, SFU, FP, FP = [3 2 1 0 4]", got)
	}
}

func TestGATESPrioritySwitchOnDrain(t *testing.T) {
	g := NewGATES()
	st := &SMState{NumWarps: 16}
	st.ACTV[isa.INT] = 0
	st.ACTV[isa.FP] = 3
	g.UpdatePriority(st)
	if g.HighPriority() != isa.FP {
		t.Fatal("priority did not switch when INT subset drained")
	}
	// And back.
	st.ACTV[isa.INT] = 2
	st.ACTV[isa.FP] = 0
	g.UpdatePriority(st)
	if g.HighPriority() != isa.INT {
		t.Fatal("priority did not switch back")
	}
	if g.Switches() != 2 {
		t.Fatalf("switches = %d, want 2", g.Switches())
	}
}

func TestGATESNoSwitchWhenBothEmpty(t *testing.T) {
	g := NewGATES()
	st := &SMState{NumWarps: 16}
	g.UpdatePriority(st) // ACTV all zero: hold
	if g.HighPriority() != isa.INT {
		t.Fatal("switched with empty subsets")
	}
}

func TestGATESBlackoutSwitch(t *testing.T) {
	// §5: switch priority when every cluster of the highest type is in
	// blackout and the other type has ready work.
	g := NewGATES()
	st := &SMState{NumWarps: 16}
	st.ACTV[isa.INT] = 4
	st.ACTV[isa.FP] = 4
	st.RDY[isa.FP] = 2
	st.AllBlackout[isa.INT] = true
	g.UpdatePriority(st)
	if g.HighPriority() != isa.FP {
		t.Fatal("priority did not switch when INT clusters blacked out")
	}
}

func TestGATESBlackoutSwitchNeedsReadyWork(t *testing.T) {
	g := NewGATES()
	st := &SMState{NumWarps: 16}
	st.ACTV[isa.INT] = 4
	st.AllBlackout[isa.INT] = true
	st.RDY[isa.FP] = 0
	g.UpdatePriority(st)
	if g.HighPriority() != isa.INT {
		t.Fatal("switched although the other type has no ready warps")
	}
}

func TestGATESMaxHold(t *testing.T) {
	g := NewGATES()
	g.MaxHold = 3
	st := &SMState{NumWarps: 16}
	st.ACTV[isa.INT] = 4
	st.ACTV[isa.FP] = 4
	for i := 0; i < 3; i++ {
		g.UpdatePriority(st)
		if g.HighPriority() != isa.INT {
			t.Fatalf("switched early at %d", i)
		}
	}
	g.UpdatePriority(st)
	if g.HighPriority() != isa.FP {
		t.Fatal("MaxHold did not force a switch")
	}
}

func TestGATESRoundRobinWithinType(t *testing.T) {
	g := NewGATES()
	ready := readyOf(0, isa.INT, 4, isa.INT, 8, isa.INT)
	g.OnIssue(walk(g, ready, ^uint64(0))[0]) // warp 0
	if got := walk(g, ready, ^uint64(0)); !equalInts(got, []int{4, 8, 0}) {
		t.Fatalf("round-robin within type broken: %v", got)
	}
}

func TestGATESSeparatesINTAndFPToEnds(t *testing.T) {
	// Property (paper §4.1): whatever the current priority, INT and FP are
	// never adjacent in the middle of the order — one of them is first and
	// the other last among the classes present.
	f := func(classRaw []uint8, flip bool) bool {
		g := NewGATES()
		if flip {
			st := &SMState{NumWarps: 64}
			st.ACTV[isa.FP] = 1 // force a switch to FP-high
			g.UpdatePriority(st)
		}
		var ready [isa.NumClasses]uint64
		class := make([]isa.Class, 64)
		for i, cr := range classRaw {
			if i == 64 {
				break
			}
			class[i] = isa.Class(cr % uint8(isa.NumClasses))
			ready[class[i]] |= 1 << uint(i)
		}
		lo := isa.FP
		if g.HighPriority() == isa.FP {
			lo = isa.INT
		}
		// After the first lo-class warp, only lo-class warps may follow.
		seenLo := false
		for _, i := range walk(g, &ready, ^uint64(0)) {
			if class[i] == lo {
				seenLo = true
			} else if seenLo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGATESOrderVisitsEachReadyWarpOnce(t *testing.T) {
	// Property: the order visits exactly the slot's ready warps, each once.
	f := func(ready [isa.NumClasses]uint64, slot uint64, last uint8) bool {
		g := NewGATES()
		g.last = int(last%65) - 1
		var want uint64
		for c := range ready {
			ready[c] &^= want // a warp has one next-instruction class
			want |= ready[c]
		}
		want &= slot
		var seen uint64
		for _, i := range walk(g, &ready, slot) {
			bit := uint64(1) << uint(i)
			if seen&bit != 0 || want&bit == 0 {
				return false
			}
			seen |= bit
		}
		return seen == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
