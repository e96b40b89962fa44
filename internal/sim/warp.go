package sim

import (
	"fmt"

	"warpedgates/internal/isa"
	"warpedgates/internal/mem"
	"warpedgates/internal/stats"
)

// WarpState is the scheduling state of a warp, implementing the two-level
// scheduler's active/pending split: warps waiting on long-latency (memory)
// events live in the pending set; warps that are ready or waiting only on
// short-latency ALU results live in the active set.
type WarpState uint8

// Warp states.
const (
	WarpIdleSlot   WarpState = iota // slot not occupied by a live warp
	WarpActive                      // in the active warp set (may or may not be ready)
	WarpPendingMem                  // in the pending set, waiting on a memory value
	WarpFinished                    // ran out of instructions
)

// String names the warp state.
func (s WarpState) String() string {
	switch s {
	case WarpIdleSlot:
		return "idle-slot"
	case WarpActive:
		return "active"
	case WarpPendingMem:
		return "pending"
	case WarpFinished:
		return "finished"
	default:
		return fmt.Sprintf("WarpState(%d)", uint8(s))
	}
}

// Warp is one 32-thread SIMT warp resident on an SM.
type Warp struct {
	op    *uop // the next instruction, &prog.code[pc]; nil once finished
	state WarpState
	cls   isa.Class // the class the SM's ACTV/RDY counters hold the warp under
	gen   uint32
	// pending is the scoreboard: a bit per architectural register that has
	// an in-flight producer. An instruction is ready when none of its source
	// or destination registers are pending.
	pending uint64
	// memPending is the subset of pending registers an in-flight LDST will
	// write, so a blocked warp can tell a short-latency ALU wait (stay
	// active) from a long-latency memory wait (move to the pending set).
	// A register has one in-flight producer at a time: the WAW hazard keeps
	// a second from issuing until the first writes back.
	memPending uint64
	id         int // slot index in the SM warp table
	ctaSlot    int // which resident CTA the warp belongs to

	prog *program
	pc   int
	iter int

	// rng is held by value: warp slots are recycled across CTA launches and
	// a fresh heap generator per reset would be the only steady-state
	// allocation in the launch path.
	rng        stats.SplitMix64
	memCounter uint64 // streaming-address counter for coalesced patterns
	globalSeq  uint64 // globally unique warp sequence number for addressing

	// memLines caches the coalesced transactions of the warp's next memory
	// instruction so a structurally-stalled access retries with the same
	// addresses (hardware replays the same request; regenerating would also
	// waste time and break determinism across retry counts).
	memLines      []mem.Line
	memLinesValid bool
	// memRefused is 1 + the MSHRGen at which memLines was last refused
	// admission (0: not refused); the refusal stands until the MSHR's set of
	// outstanding lines changes or the lines are regenerated.
	memRefused uint64
}

// reset re-initializes the slot for a fresh warp of a new CTA.
func (w *Warp) reset(p *program, ctaSlot int, globalSeq uint64, seed uint64) {
	w.gen++
	w.prog = p
	w.ctaSlot = ctaSlot
	w.pc = 0
	w.iter = 0
	w.state = WarpActive
	w.pending = 0
	w.memPending = 0
	w.rng.Seed(seed)
	w.memCounter = 0
	w.globalSeq = globalSeq
	w.memLines = w.memLines[:0]
	w.memLinesValid = false
	if p.kernel.PerWarpSlice {
		// Microkernel mode: warp i executes only Body[i] (see kernels doc).
		w.pc = int(globalSeq) % len(p.code)
	}
	w.op = &p.code[w.pc]
}

// blockedMask returns the pending registers that block the next instruction.
func (w *Warp) blockedMask() uint64 {
	if w.op == nil {
		return 0
	}
	return w.pending & w.op.hazard
}

// ready reports whether the warp's next instruction has all operands
// available and no WAW hazard.
func (w *Warp) ready() bool {
	return w.state == WarpActive && w.blockedMask() == 0
}

// blockedOnMemory reports whether any register blocking the next instruction
// is produced by an in-flight memory operation — the two-level scheduler's
// criterion for demoting the warp to the pending set.
func (w *Warp) blockedOnMemory() bool {
	return w.op != nil && w.memPending&w.op.hazard != 0
}

// refreshState moves the warp between the active and pending sets based on
// what blocks it; called after issue and after each writeback touching it.
func (w *Warp) refreshState() {
	switch w.state {
	case WarpActive:
		if w.blockedOnMemory() {
			w.state = WarpPendingMem
		}
	case WarpPendingMem:
		if !w.blockedOnMemory() {
			w.state = WarpActive
		}
	}
}

// advance moves the warp past its just-issued instruction in, marking the
// destination register pending. It returns true when the warp finished its
// last instruction.
func (w *Warp) advance(in *uop) bool {
	w.pending |= in.dst
	if in.class == isa.LDST {
		w.memPending |= in.dst
	}
	if w.prog.kernel.PerWarpSlice {
		return w.finish()
	}
	w.pc++
	if w.pc >= len(w.prog.code) {
		w.pc = 0
		w.iter++
		if w.iter >= w.prog.kernel.Iterations {
			return w.finish()
		}
	}
	w.op = &w.prog.code[w.pc]
	return false
}

// finish retires the warp after its last instruction.
func (w *Warp) finish() bool {
	w.state = WarpFinished
	w.op = nil
	return true
}

// clearPending clears the given destination mask after writeback and
// re-evaluates the warp's set membership.
func (w *Warp) clearPending(mask uint64) {
	w.pending &^= mask
	w.memPending &^= mask
	w.refreshState()
}

// live reports whether the slot holds a running warp.
func (w *Warp) live() bool {
	return w.state == WarpActive || w.state == WarpPendingMem
}
