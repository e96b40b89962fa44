package sim

import (
	"fmt"

	"warpedgates/internal/gating"
	"warpedgates/internal/isa"
)

// Pipe is one execution-unit issue port with its own gating domain: an INT or
// FP pipeline of one SP cluster, the SFU bank, or the LD/ST port. Occupancy
// is tracked with two horizons: portFreeAt enforces the initiation interval
// (a new warp instruction may not start before it), and drainAt marks when
// the deepest in-flight instruction leaves the pipeline (the unit is busy —
// consuming useful dynamic power and ineligible for gating — until then).
type Pipe struct {
	class   isa.Class
	cluster int

	portFreeAt int64
	drainAt    int64
	due        int64 // first cycle whose tick may change the controller's state
	settled    int64 // first cycle the controller has not been ticked for

	gate *gating.Controller

	issuedInstrs uint64
}

// newPipe builds a pipe for the given class/cluster with its controller.
func newPipe(class isa.Class, cluster int, gate *gating.Controller) *Pipe {
	if gate == nil {
		panic("sim: pipe requires a gating controller")
	}
	return &Pipe{class: class, cluster: cluster, gate: gate}
}

// Busy reports whether any instruction occupies the pipeline at cycle now.
func (p *Pipe) Busy(now int64) bool { return now < p.drainAt }

// CanStart reports whether a new instruction may begin at cycle now: the
// port must be free (initiation interval) and the gating controller must
// have the unit powered.
func (p *Pipe) CanStart(now int64) bool {
	return now >= p.portFreeAt && p.gate.CanIssue()
}

// Start commits an instruction to the pipe at cycle now, holding the port
// for ii cycles and the pipeline for latency cycles.
func (p *Pipe) Start(now int64, ii, latency int) {
	if !p.CanStart(now) {
		panic(fmt.Sprintf("sim: Start on unavailable %s pipe (cluster %d)", p.class, p.cluster))
	}
	if ii <= 0 || latency <= 0 {
		panic(fmt.Sprintf("sim: non-positive ii/latency %d/%d", ii, latency))
	}
	p.portFreeAt = now + int64(ii)
	if d := now + int64(latency); d > p.drainAt {
		p.drainAt = d
	}
	p.issuedInstrs++
}

// settle applies the controller's ticks owed for cycles before end under
// its staged inputs: busy until the pipe drains, idle after.
func (p *Pipe) settle(end int64) {
	n := end - p.settled
	if n <= 0 {
		return
	}
	busy := min(max(p.drainAt-p.settled, 0), n)
	p.gate.Advance(busy, n-busy)
	p.settled = end
}

// Gate exposes the pipe's gating controller.
func (p *Pipe) Gate() *gating.Controller { return p.gate }

// Class returns the pipe's execution-unit class.
func (p *Pipe) Class() isa.Class { return p.class }

// Cluster returns the pipe's cluster index within its class.
func (p *Pipe) Cluster() int { return p.cluster }

// Issued returns the number of warp instructions this pipe executed.
func (p *Pipe) Issued() uint64 { return p.issuedInstrs }
