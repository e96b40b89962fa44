package sim

import (
	"math/bits"
	"math/rand"
	"testing"

	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
)

// TestDecodeMatchesISA checks every decoded field against isa's per-op
// functions, for every instruction of every benchmark and microkernel.
func TestDecodeMatchesISA(t *testing.T) {
	ks, err := kernels.AllBenchmarks()
	if err != nil {
		t.Fatal(err)
	}
	ks = append(ks, tinyKernel(), kernels.Fig4Microkernel(),
		kernels.MicrokernelFromSequence("fp-int", []isa.Class{isa.FP, isa.INT, isa.FP}))
	for _, k := range ks {
		p := decodeKernel(k)
		if p.kernel != k || len(p.code) != len(k.Body) {
			t.Fatalf("%s: decoded %d of %d instructions", k.Name, len(p.code), len(k.Body))
		}
		for i := range k.Body {
			in, u := &k.Body[i], p.code[i]
			want := uop{
				hazard:  in.SrcMask() | in.DstMask(),
				dst:     in.DstMask(),
				latency: isa.Latency(in.Op),
				ii:      isa.InitiationInterval(in.Op),
				class:   isa.ClassOf(in.Op),
				shared:  isa.IsMemory(in.Op) && in.Space == isa.SpaceShared,
				pattern: in.Pattern,
				region:  in.Region,
			}
			if u != want {
				t.Fatalf("%s instr %d (%s): decoded %+v, want %+v", k.Name, i, in, u, want)
			}
			if isa.IsLoad(in.Op) != (u.class == isa.LDST && u.dst != 0) {
				t.Fatalf("%s instr %d (%s): load %t, but class %v dst %#x", k.Name, i, in, isa.IsLoad(in.Op), u.class, u.dst)
			}
		}
	}
}

// producerOracle is the per-register scoreboard walk the memory-wait mask
// replaced: the class of each register's latest producer, and a warp waits
// on memory when a pending register its next instruction names came from an
// LDST.
type producerOracle struct {
	producer [isa.NumRegs]isa.Class
}

func (o *producerOracle) advance(in *isa.Instr) {
	if in.Dst != isa.NoReg {
		o.producer[in.Dst] = in.Class()
	}
}

func (o *producerOracle) blockedOnMemory(w *Warp, in *isa.Instr) bool {
	for m := w.pending & (in.SrcMask() | in.DstMask()); m != 0; m &= m - 1 {
		if o.producer[bits.TrailingZeros64(m)] == isa.LDST {
			return true
		}
	}
	return false
}

// TestMemoryWaitMaskMatchesProducerWalk drives warps through random bodies
// with random writebacks and checks, after every advance and clearPending,
// that the mask-based memory wait (and with it the warp's set) equals the
// per-register producer walk.
func TestMemoryWaitMaskMatchesProducerWalk(t *testing.T) {
	ops := []isa.Op{isa.OpIADD, isa.OpIMUL, isa.OpFFMA, isa.OpFDIV, isa.OpSIN,
		isa.OpLDG, isa.OpSTG, isa.OpLDS, isa.OpSTS, isa.OpLDL}
	rng := rand.New(rand.NewSource(29))
	reg := func() isa.Reg { return isa.Reg(rng.Intn(8)) } // few registers: many hazards
	for trial := 0; trial < 200; trial++ {
		body := make([]isa.Instr, 1+rng.Intn(12))
		for i := range body {
			op := ops[rng.Intn(len(ops))]
			in := isa.Instr{Op: op, Dst: reg(), NSrc: rng.Intn(4), Srcs: [3]isa.Reg{reg(), reg(), reg()}}
			if isa.IsStore(op) {
				in.Dst = isa.NoReg
			}
			if isa.IsMemory(op) {
				in.Space = isa.SpaceGlobal
				if op == isa.OpLDS || op == isa.OpSTS {
					in.Space = isa.SpaceShared
				}
			}
			body[i] = in
		}
		k := &kernels.Kernel{Name: "random", Body: body, Iterations: 3, WarpsPerCTA: 1,
			MaxConcurrentCTAs: 1, CTAsPerSM: 1, WorkingSetLines: 4, NumRegions: 1}
		if err := k.Validate(); err != nil {
			t.Fatal(err)
		}
		w := &Warp{state: WarpIdleSlot}
		w.reset(decodeKernel(k), 0, 0, 1)
		var o producerOracle
		check := func(step string) {
			t.Helper()
			if w.op == nil {
				return
			}
			in := &body[w.pc]
			if got, want := w.blockedOnMemory(), o.blockedOnMemory(w, in); got != want {
				t.Fatalf("trial %d after %s: mask says blocked on memory %t, walk says %t (pending %#x, memPending %#x, %s)",
					trial, step, got, want, w.pending, w.memPending, in)
			}
		}
		for w.state != WarpFinished {
			if w.pending != 0 && rng.Intn(2) == 0 {
				// Write back a random subset of the in-flight registers.
				w.clearPending(w.pending & rng.Uint64())
				check("clearPending")
				continue
			}
			if w.blockedMask() != 0 {
				w.clearPending(w.blockedMask())
				check("clearPending")
			}
			in := &body[w.pc]
			o.advance(in)
			w.advance(w.op)
			w.refreshState()
			check("advance")
		}
	}
}
