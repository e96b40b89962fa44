// Package kernels defines the synthetic GPGPU workloads used to reproduce the
// paper's evaluation. The paper runs 18 CUDA benchmarks from Rodinia, Parboil
// and ISPASS on GPGPU-Sim; since neither the CUDA toolchain nor the original
// binaries are available here, each benchmark is substituted with a synthetic
// kernel that matches the three workload properties every figure in the paper
// depends on: instruction mix (paper Fig. 5a), active-warp occupancy (Fig. 5b),
// and the idle-window structure induced by memory stalls and register
// dependences. See DESIGN.md §1 for the substitution argument.
package kernels

import (
	"fmt"

	"warpedgates/internal/isa"
)

// Kernel is a complete synthetic workload: a register-allocated loop body that
// every warp executes Iterations times, plus launch geometry.
type Kernel struct {
	Name string
	Body []isa.Instr
	// Iterations is the number of times each warp executes Body.
	Iterations int
	// WarpsPerCTA is the number of warps in one cooperative thread array.
	WarpsPerCTA int
	// MaxConcurrentCTAs bounds how many CTAs are resident on an SM at once
	// (together with the SM warp limit this sets occupancy, Fig. 5b).
	MaxConcurrentCTAs int
	// CTAsPerSM is the total number of CTAs each SM executes; CTAs beyond
	// MaxConcurrentCTAs queue and launch as earlier CTAs drain.
	CTAsPerSM int
	// WorkingSetLines is the number of distinct cache lines each address
	// region spans; small values produce L1 hits, large values stream.
	WorkingSetLines int
	// NumRegions is how many independent address regions memory
	// instructions are spread over.
	NumRegions int
	// PerWarpSlice, when set, makes warp w execute only Body[w] instead of
	// the whole body. It supports illustrative microkernels such as the
	// paper's Figure 4 walkthrough, where each active warp holds exactly
	// one instruction. Requires len(Body) >= WarpsPerCTA.
	PerWarpSlice bool
}

// Validate checks the kernel's structural invariants.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("kernels: kernel has empty name")
	}
	if len(k.Body) == 0 {
		return fmt.Errorf("kernels: %s has empty body", k.Name)
	}
	if k.Iterations <= 0 {
		return fmt.Errorf("kernels: %s has non-positive iterations %d", k.Name, k.Iterations)
	}
	if k.WarpsPerCTA <= 0 {
		return fmt.Errorf("kernels: %s has non-positive warps/CTA %d", k.Name, k.WarpsPerCTA)
	}
	if k.MaxConcurrentCTAs <= 0 {
		return fmt.Errorf("kernels: %s has non-positive concurrent CTAs %d", k.Name, k.MaxConcurrentCTAs)
	}
	if k.CTAsPerSM < k.MaxConcurrentCTAs {
		return fmt.Errorf("kernels: %s has fewer total CTAs (%d) than concurrent CTAs (%d)",
			k.Name, k.CTAsPerSM, k.MaxConcurrentCTAs)
	}
	if k.WorkingSetLines <= 0 {
		return fmt.Errorf("kernels: %s has non-positive working set %d", k.Name, k.WorkingSetLines)
	}
	if k.NumRegions <= 0 {
		return fmt.Errorf("kernels: %s has non-positive region count %d", k.Name, k.NumRegions)
	}
	if k.PerWarpSlice && len(k.Body) < k.WarpsPerCTA {
		return fmt.Errorf("kernels: %s per-warp slice body (%d) shorter than warps/CTA (%d)",
			k.Name, len(k.Body), k.WarpsPerCTA)
	}
	for i := range k.Body {
		if err := k.Body[i].Validate(); err != nil {
			return fmt.Errorf("kernels: %s instr %d: %w", k.Name, i, err)
		}
	}
	return nil
}

// TotalWarpInstructions returns the dynamic instruction count one warp
// executes over the kernel's lifetime.
func (k *Kernel) TotalWarpInstructions() int {
	return len(k.Body) * k.Iterations
}

// Mix returns the static instruction mix of the body as fractions per class.
func (k *Kernel) Mix() [isa.NumClasses]float64 {
	var counts [isa.NumClasses]int
	for i := range k.Body {
		counts[k.Body[i].Class()]++
	}
	var mix [isa.NumClasses]float64
	total := float64(len(k.Body))
	for c := range counts {
		mix[c] = float64(counts[c]) / total
	}
	return mix
}

// MaxScale is the largest factor Scale accepts. Scale 1 is the paper-sized
// workload, seconds to minutes per run on the 15-SM machine, and no harness
// uses more than 100; 1e4 keeps that headroom while every scaled count stays
// far inside int. Without a bound, a factor near 1e18 overflows the
// float-to-int conversion and a job silently runs a tiny workload under a
// key that names a huge one.
const MaxScale = 1e4

// Scale returns a copy of the kernel with its total work multiplied by f
// (0 < f <= 1 shrinks, f > 1 grows). Scaling adjusts iteration counts and CTA
// counts, never the body, so instruction mix and dependence structure are
// preserved; tests use small scales, the figure harness uses 1.0. It panics
// unless 0 < f <= MaxScale.
func (k *Kernel) Scale(f float64) *Kernel {
	if !(f > 0 && f <= MaxScale) {
		panic(fmt.Sprintf("kernels: scale %v outside (0, %g]", f, MaxScale))
	}
	cp := *k
	cp.Iterations = maxInt(1, int(float64(k.Iterations)*f+0.5))
	// Keep at least one full wave of CTAs so occupancy is unchanged.
	cp.CTAsPerSM = maxInt(k.MaxConcurrentCTAs, int(float64(k.CTAsPerSM)*f+0.5))
	return &cp
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
