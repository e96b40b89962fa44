package kernels

import (
	"fmt"

	"warpedgates/internal/isa"
	"warpedgates/internal/stats"
)

// Profile is the declarative description a synthetic kernel is generated
// from. The fields map one-to-one onto the workload properties the paper's
// figures depend on; see the package comment.
type Profile struct {
	Name string

	// Instruction mix (fractions; must sum to ~1). Mirrors paper Fig. 5a.
	FracINT  float64
	FracFP   float64
	FracSFU  float64
	FracLDST float64

	// BodyLen is the static length of the generated loop body.
	BodyLen int
	// Iterations is how many times each warp runs the body.
	Iterations int

	// DepWindow is the register-reuse window: sources are drawn from the
	// destinations of the previous DepWindow instructions. Small windows
	// create tight dependence chains (pipeline bubbles, paper Fig. 4);
	// large windows give high ILP (backprop/lavaMD-style full pipelines).
	DepWindow int
	// LoadUseGap is roughly how many instructions separate a load from its
	// first consumer; small gaps force warps into the pending set quickly.
	LoadUseGap int

	// Memory behaviour.
	SharedFrac   float64           // fraction of memory ops hitting shared memory
	StoreFrac    float64           // fraction of memory ops that are stores
	Pattern      isa.AccessPattern // dominant global access pattern
	RandomFrac   float64           // fraction of global ops using PatternRandom
	WorkingLines int               // per-region working set in cache lines
	NumRegions   int               // address regions

	// Heavier-op flavor.
	IMulFrac float64 // fraction of INT ops that are multiplies (latency 9)
	FDivFrac float64 // fraction of FP ops that are divides (latency 16)

	// Occupancy (paper Fig. 5b).
	WarpsPerCTA       int
	MaxConcurrentCTAs int
	CTAsPerSM         int
}

// Validate checks the profile for consistency.
func (p *Profile) Validate() error {
	sum := p.FracINT + p.FracFP + p.FracSFU + p.FracLDST
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("kernels: %s mix sums to %v, want 1", p.Name, sum)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"FracINT", p.FracINT}, {"FracFP", p.FracFP}, {"FracSFU", p.FracSFU},
		{"FracLDST", p.FracLDST}, {"SharedFrac", p.SharedFrac},
		{"StoreFrac", p.StoreFrac}, {"RandomFrac", p.RandomFrac},
		{"IMulFrac", p.IMulFrac}, {"FDivFrac", p.FDivFrac},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("kernels: %s %s=%v out of [0,1]", p.Name, f.name, f.v)
		}
	}
	if p.BodyLen <= 0 || p.Iterations <= 0 || p.DepWindow <= 0 || p.LoadUseGap < 0 {
		return fmt.Errorf("kernels: %s has non-positive shape parameter", p.Name)
	}
	if p.WarpsPerCTA <= 0 || p.MaxConcurrentCTAs <= 0 || p.CTAsPerSM < p.MaxConcurrentCTAs {
		return fmt.Errorf("kernels: %s has invalid occupancy parameters", p.Name)
	}
	if p.WorkingLines <= 0 || p.NumRegions <= 0 {
		return fmt.Errorf("kernels: %s has invalid memory parameters", p.Name)
	}
	return nil
}

// intOps and fpOps are the light opcode pools the generator draws from.
var (
	intOps = []isa.Op{isa.OpIADD, isa.OpISUB, isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpSHL, isa.OpSHR, isa.OpSETP, isa.OpMOV}
	fpOps  = []isa.Op{isa.OpFADD, isa.OpFMUL, isa.OpFFMA, isa.OpFSET}
	sfuOps = []isa.Op{isa.OpSIN, isa.OpCOS, isa.OpRSQRT, isa.OpEXP, isa.OpLG2}
)

// Build deterministically generates the kernel described by p. The same
// profile always yields the same kernel; per-warp dynamic behaviour is
// further randomized by the simulator's per-warp streams, not here.
func (p *Profile) Build() (*Kernel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewSplitMix64(stats.HashString("kernel:" + p.Name))

	body := make([]isa.Instr, 0, p.BodyLen)
	// recentDsts is the sliding window of recently written registers used
	// to draw dependences from.
	var recentDsts []isa.Reg
	// pendingLoads tracks load destinations that must be consumed soon, so
	// that loads actually block their warps (load-use dependences).
	type pendingLoad struct {
		reg   isa.Reg
		dueIn int
	}
	var pendingLoads []pendingLoad
	nextReg := 8 // r0..r7 are reserved "live-in" registers (thread id etc.)

	allocReg := func() isa.Reg {
		r := isa.Reg(nextReg)
		nextReg++
		if nextReg >= isa.NumRegs {
			nextReg = 8
		}
		return r
	}
	pickSrc := func() isa.Reg {
		// Prefer a recent destination to create a dependence; fall back to
		// a live-in register.
		if len(recentDsts) > 0 && rng.Bool(0.8) {
			win := p.DepWindow
			if win > len(recentDsts) {
				win = len(recentDsts)
			}
			return recentDsts[len(recentDsts)-1-rng.Intn(win)]
		}
		return isa.Reg(rng.Intn(8))
	}
	noteDst := func(r isa.Reg) {
		recentDsts = append(recentDsts, r)
		if len(recentDsts) > 2*p.DepWindow+4 {
			recentDsts = recentDsts[1:]
		}
	}

	classAt := func() isa.Class {
		x := rng.Float64()
		switch {
		case x < p.FracINT:
			return isa.INT
		case x < p.FracINT+p.FracFP:
			return isa.FP
		case x < p.FracINT+p.FracFP+p.FracSFU:
			return isa.SFU
		default:
			return isa.LDST
		}
	}

	for i := 0; i < p.BodyLen; i++ {
		// If a load result is due for consumption, force a consumer now so
		// memory latency actually stalls the warp.
		if len(pendingLoads) > 0 && pendingLoads[0].dueIn <= 0 {
			lr := pendingLoads[0].reg
			pendingLoads = pendingLoads[1:]
			dst := allocReg()
			var op isa.Op
			if rng.Bool(p.FracFP / (p.FracFP + p.FracINT + 1e-9)) {
				op = fpOps[rng.Intn(len(fpOps))]
			} else {
				op = intOps[rng.Intn(len(intOps))]
			}
			in := isa.Instr{Op: op, Dst: dst, NSrc: 2}
			in.Srcs = [3]isa.Reg{lr, pickSrc(), isa.NoReg}
			body = append(body, in)
			noteDst(dst)
			for j := range pendingLoads {
				pendingLoads[j].dueIn--
			}
			continue
		}

		cls := classAt()
		var in isa.Instr
		switch cls {
		case isa.INT:
			op := intOps[rng.Intn(len(intOps))]
			if rng.Bool(p.IMulFrac) {
				if rng.Bool(0.5) {
					op = isa.OpIMUL
				} else {
					op = isa.OpIMAD
				}
			}
			dst := allocReg()
			in = isa.Instr{Op: op, Dst: dst, NSrc: 2, Srcs: [3]isa.Reg{pickSrc(), pickSrc(), isa.NoReg}}
			if op == isa.OpIMAD {
				in.NSrc = 3
				in.Srcs[2] = pickSrc()
			}
			noteDst(dst)
		case isa.FP:
			op := fpOps[rng.Intn(len(fpOps))]
			if rng.Bool(p.FDivFrac) {
				op = isa.OpFDIV
			}
			dst := allocReg()
			in = isa.Instr{Op: op, Dst: dst, NSrc: 2, Srcs: [3]isa.Reg{pickSrc(), pickSrc(), isa.NoReg}}
			if op == isa.OpFFMA {
				in.NSrc = 3
				in.Srcs[2] = pickSrc()
			}
			noteDst(dst)
		case isa.SFU:
			op := sfuOps[rng.Intn(len(sfuOps))]
			dst := allocReg()
			in = isa.Instr{Op: op, Dst: dst, NSrc: 1, Srcs: [3]isa.Reg{pickSrc(), isa.NoReg, isa.NoReg}}
			noteDst(dst)
		case isa.LDST:
			in = p.memInstr(rng, allocReg, pickSrc)
			if isa.IsLoad(in.Op) {
				pendingLoads = append(pendingLoads, pendingLoad{reg: in.Dst, dueIn: p.LoadUseGap})
				noteDst(in.Dst)
			}
		}
		body = append(body, in)
		for j := range pendingLoads {
			pendingLoads[j].dueIn--
		}
	}

	k := &Kernel{
		Name:              p.Name,
		Body:              body,
		Iterations:        p.Iterations,
		WarpsPerCTA:       p.WarpsPerCTA,
		MaxConcurrentCTAs: p.MaxConcurrentCTAs,
		CTAsPerSM:         p.CTAsPerSM,
		WorkingSetLines:   p.WorkingLines,
		NumRegions:        p.NumRegions,
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

// memInstr generates one memory instruction according to the profile's
// memory behaviour knobs.
func (p *Profile) memInstr(rng *stats.SplitMix64, allocReg func() isa.Reg, pickSrc func() isa.Reg) isa.Instr {
	shared := rng.Bool(p.SharedFrac)
	store := rng.Bool(p.StoreFrac)
	pattern := p.Pattern
	if !shared && rng.Bool(p.RandomFrac) {
		pattern = isa.PatternRandom
	}
	region := uint8(rng.Intn(p.NumRegions))

	var in isa.Instr
	switch {
	case shared && store:
		in = isa.Instr{Op: isa.OpSTS, Dst: isa.NoReg, NSrc: 2,
			Srcs: [3]isa.Reg{pickSrc(), pickSrc(), isa.NoReg}, Space: isa.SpaceShared}
	case shared:
		in = isa.Instr{Op: isa.OpLDS, Dst: allocReg(), NSrc: 1,
			Srcs: [3]isa.Reg{pickSrc(), isa.NoReg, isa.NoReg}, Space: isa.SpaceShared}
	case store:
		in = isa.Instr{Op: isa.OpSTG, Dst: isa.NoReg, NSrc: 2,
			Srcs: [3]isa.Reg{pickSrc(), pickSrc(), isa.NoReg}, Space: isa.SpaceGlobal}
	default:
		in = isa.Instr{Op: isa.OpLDG, Dst: allocReg(), NSrc: 1,
			Srcs: [3]isa.Reg{pickSrc(), isa.NoReg, isa.NoReg}, Space: isa.SpaceGlobal}
	}
	in.Pattern = pattern
	in.Region = region
	return in
}
