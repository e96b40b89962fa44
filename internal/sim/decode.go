package sim

import (
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
)

// uop is one kernel instruction decoded for the hot loop: everything issue,
// the scoreboard and the pipes read of it, derived once per kernel from the
// isa tables instead of on every issue attempt.
type uop struct {
	hazard  uint64 // source and destination scoreboard bits: pending ones block issue
	dst     uint64 // destination scoreboard bit, 0 without a register result
	latency int    // issue-to-writeback latency (the LDST port's depth for memory)
	ii      int    // initiation interval: cycles the issue port is held
	class   isa.Class
	shared  bool // an LDST access to the shared scratchpad
	pattern isa.AccessPattern
	region  uint8
}

// program is a kernel with its body decoded, shared read-only by every SM of
// a device.
type program struct {
	kernel *kernels.Kernel
	code   []uop // code[i] decodes kernel.Body[i]
}

// decodeKernel decodes k's body. NewGPU calls it once per device.
func decodeKernel(k *kernels.Kernel) *program {
	p := &program{kernel: k, code: make([]uop, len(k.Body))}
	for i := range k.Body {
		in := &k.Body[i]
		p.code[i] = uop{
			hazard:  in.SrcMask() | in.DstMask(),
			dst:     in.DstMask(),
			latency: in.Latency(),
			ii:      in.InitiationInterval(),
			class:   in.Class(),
			shared:  in.Space == isa.SpaceShared,
			pattern: in.Pattern,
			region:  in.Region,
		}
	}
	return p
}
