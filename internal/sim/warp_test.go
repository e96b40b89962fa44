package sim

import (
	"testing"

	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
)

// tinyKernel builds a two-instruction kernel: a load feeding an add.
func tinyKernel() *kernels.Kernel {
	return &kernels.Kernel{
		Name: "tiny",
		Body: []isa.Instr{
			{Op: isa.OpLDG, Dst: 10, NSrc: 1, Srcs: [3]isa.Reg{0, isa.NoReg, isa.NoReg},
				Space: isa.SpaceGlobal, Pattern: isa.PatternCoalesced},
			{Op: isa.OpIADD, Dst: 11, NSrc: 2, Srcs: [3]isa.Reg{10, 1, isa.NoReg}},
		},
		Iterations: 2, WarpsPerCTA: 1, MaxConcurrentCTAs: 1, CTAsPerSM: 1,
		WorkingSetLines: 16, NumRegions: 1,
	}
}

func TestWarpResetState(t *testing.T) {
	w := &Warp{id: 0, state: WarpIdleSlot}
	w.reset(decodeKernel(tinyKernel()), 0, 7, 1234)
	if w.state != WarpActive || w.pc != 0 || w.iter != 0 || w.pending != 0 {
		t.Fatalf("reset state wrong: %+v", w)
	}
	gen := w.gen
	w.reset(decodeKernel(tinyKernel()), 0, 8, 99)
	if w.gen != gen+1 {
		t.Fatal("generation not bumped on reset")
	}
}

func TestWarpReadyAndBlocking(t *testing.T) {
	w := &Warp{id: 0, state: WarpIdleSlot}
	w.reset(decodeKernel(tinyKernel()), 0, 0, 1)
	if !w.ready() {
		t.Fatal("fresh warp should be ready")
	}
	// Issue the load: r10 becomes pending with an LDST producer.
	in := w.op
	if w.advance(in) {
		t.Fatal("warp finished prematurely")
	}
	if w.pending != 1<<10 {
		t.Fatalf("pending = %b", w.pending)
	}
	// Next instruction reads r10: blocked on memory.
	if w.ready() {
		t.Fatal("consumer should be blocked")
	}
	if !w.blockedOnMemory() {
		t.Fatal("block should be attributed to memory")
	}
	w.refreshState()
	if w.state != WarpPendingMem {
		t.Fatalf("state = %s, want pending", w.state)
	}
	// Writeback unblocks and returns the warp to the active set.
	w.clearPending(1 << 10)
	if w.state != WarpActive || !w.ready() {
		t.Fatalf("state after writeback = %s ready=%v", w.state, w.ready())
	}
}

func TestWarpALUBlockStaysActive(t *testing.T) {
	k := &kernels.Kernel{
		Name: "chain",
		Body: []isa.Instr{
			{Op: isa.OpIADD, Dst: 12, NSrc: 2, Srcs: [3]isa.Reg{0, 1, isa.NoReg}},
			{Op: isa.OpIADD, Dst: 13, NSrc: 2, Srcs: [3]isa.Reg{12, 1, isa.NoReg}},
		},
		Iterations: 1, WarpsPerCTA: 1, MaxConcurrentCTAs: 1, CTAsPerSM: 1,
		WorkingSetLines: 1, NumRegions: 1,
	}
	w := &Warp{id: 0, state: WarpIdleSlot}
	w.reset(decodeKernel(k), 0, 0, 1)
	w.advance(w.op)
	if w.ready() {
		t.Fatal("dependent add should not be ready")
	}
	w.refreshState()
	if w.state != WarpActive {
		t.Fatalf("ALU-blocked warp left the active set: %s", w.state)
	}
}

func TestWarpWAWBlocks(t *testing.T) {
	k := &kernels.Kernel{
		Name: "waw",
		Body: []isa.Instr{
			{Op: isa.OpIADD, Dst: 12, NSrc: 2, Srcs: [3]isa.Reg{0, 1, isa.NoReg}},
			{Op: isa.OpIADD, Dst: 12, NSrc: 2, Srcs: [3]isa.Reg{0, 1, isa.NoReg}},
		},
		Iterations: 1, WarpsPerCTA: 1, MaxConcurrentCTAs: 1, CTAsPerSM: 1,
		WorkingSetLines: 1, NumRegions: 1,
	}
	w := &Warp{id: 0, state: WarpIdleSlot}
	w.reset(decodeKernel(k), 0, 0, 1)
	w.advance(w.op)
	if w.ready() {
		t.Fatal("WAW hazard not detected by scoreboard")
	}
}

func TestWarpFinishes(t *testing.T) {
	w := &Warp{id: 0, state: WarpIdleSlot}
	w.reset(decodeKernel(tinyKernel()), 0, 0, 1)
	total := tinyKernel().TotalWarpInstructions()
	issued := 0
	for w.state != WarpFinished {
		w.clearPending(^uint64(0)) // magic writeback to keep it ready
		in := w.op
		if in == nil {
			t.Fatal("nil instruction on unfinished warp")
		}
		w.advance(in)
		issued++
		if issued > total {
			t.Fatalf("issued %d > expected %d", issued, total)
		}
	}
	if issued != total {
		t.Fatalf("issued %d, want %d", issued, total)
	}
	if w.op != nil {
		t.Fatal("finished warp still has instructions")
	}
	if w.live() {
		t.Fatal("finished warp reports live")
	}
}

func TestWarpPerWarpSlice(t *testing.T) {
	k := kernels.Fig4Microkernel()
	w := &Warp{id: 3, state: WarpIdleSlot}
	w.reset(decodeKernel(k), 0, 3, 1)
	if w.pc != 3 {
		t.Fatalf("per-warp-slice pc = %d, want 3", w.pc)
	}
	if w.advance(w.op) != true {
		t.Fatal("microkernel warp should finish after one instruction")
	}
}
