package sim

import (
	"fmt"
	"math/bits"

	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
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
	id      int // slot index in the SM warp table
	ctaSlot int // which resident CTA the warp belongs to
	gen     uint32

	kernel *kernels.Kernel
	pc     int
	iter   int
	state  WarpState

	// pending is the scoreboard: a bit per architectural register that has
	// an in-flight producer. An instruction is ready when none of its source
	// or destination registers are pending.
	pending uint64
	// producer records the class of the in-flight producer per register, so
	// a blocked warp can tell a short-latency ALU wait (stay active) from a
	// long-latency memory wait (move to the pending set).
	producer [isa.NumRegs]isa.Class

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

	issued uint64 // dynamic instructions issued by this warp
}

// reset re-initializes the slot for a fresh warp of a new CTA.
func (w *Warp) reset(k *kernels.Kernel, ctaSlot int, globalSeq uint64, seed uint64) {
	w.gen++
	w.kernel = k
	w.ctaSlot = ctaSlot
	w.pc = 0
	w.iter = 0
	w.state = WarpActive
	w.pending = 0
	for i := range w.producer {
		w.producer[i] = 0
	}
	w.rng.Seed(seed)
	w.memCounter = 0
	w.globalSeq = globalSeq
	w.memLines = w.memLines[:0]
	w.memLinesValid = false
	if k.PerWarpSlice {
		// Microkernel mode: warp i executes only Body[i] (see kernels doc).
		w.pc = int(globalSeq) % len(k.Body)
	}
}

// current returns the warp's next instruction, or nil when finished.
func (w *Warp) current() *isa.Instr {
	if w.state == WarpFinished || w.state == WarpIdleSlot || w.kernel == nil {
		return nil
	}
	return &w.kernel.Body[w.pc]
}

// blockedMask returns the pending registers that block the next instruction.
func (w *Warp) blockedMask() uint64 {
	in := w.current()
	if in == nil {
		return 0
	}
	return w.pending & (in.SrcMask() | in.DstMask())
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
	m := w.blockedMask()
	for m != 0 {
		r := bits.TrailingZeros64(m)
		if w.producer[r] == isa.LDST {
			return true
		}
		m &= m - 1
	}
	return false
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

// advance moves the warp past its just-issued instruction, marking the
// destination register pending. It returns true when the warp finished its
// last instruction.
func (w *Warp) advance(in *isa.Instr) bool {
	w.issued++
	if in.Dst != isa.NoReg {
		w.pending |= in.DstMask()
		w.producer[in.Dst] = in.Class()
	}
	if w.kernel.PerWarpSlice {
		w.state = WarpFinished
		return true
	}
	w.pc++
	if w.pc >= len(w.kernel.Body) {
		w.pc = 0
		w.iter++
		if w.iter >= w.kernel.Iterations {
			w.state = WarpFinished
			return true
		}
	}
	return false
}

// clearPending clears the given destination mask after writeback and
// re-evaluates the warp's set membership.
func (w *Warp) clearPending(mask uint64) {
	w.pending &^= mask
	w.refreshState()
}

// live reports whether the slot holds a running warp.
func (w *Warp) live() bool {
	return w.state == WarpActive || w.state == WarpPendingMem
}
