package mem

import (
	"fmt"
	"slices"

	"warpedgates/internal/config"
)

// Result describes the timing outcome of one warp memory access: the cycle
// the value becomes available and what levels it hit, for statistics.
type Result struct {
	CompleteAt   int64 // absolute cycle the last transaction returns
	Transactions int
	L1Misses     int
	L2Misses     int
}

// GPUMem is the device-level memory system shared by all SMs: a unified L2
// and a channel-partitioned DRAM model with bounded bandwidth. Access timing
// is computed at issue time, which keeps the model deterministic and cheap
// while still producing realistic latency spreads and queueing under load.
type GPUMem struct {
	cfg      config.Config
	l2       *Cache
	chanFree []int64 // next-free cycle of each DRAM channel
	// dramService is the channel occupancy per request; together with the
	// channel count it sets peak DRAM bandwidth.
	dramService int64

	l2Accesses uint64
	l2Misses   uint64
	dramReqs   uint64
	queueDelay uint64 // accumulated cycles requests waited for a channel
}

// NewGPUMem builds the device-level memory system for cfg.
func NewGPUMem(cfg config.Config) *GPUMem {
	return &GPUMem{
		cfg:         cfg,
		l2:          NewCache(cfg.L2Sets, cfg.L2Ways),
		chanFree:    make([]int64, cfg.DRAMSlots),
		dramService: 4,
	}
}

// AccessLine computes the completion cycle of one line transaction entering
// the device at cycle now after missing an SM's L1.
func (g *GPUMem) AccessLine(now int64, line Line) (completeAt int64, l2Miss bool) {
	g.l2Accesses++
	if g.l2.Access(line) {
		return now + int64(g.cfg.L2HitLatency), false
	}
	g.l2Misses++
	g.dramReqs++
	ch := int(uint64(line) % uint64(g.cfg.DRAMSlots))
	start := now
	if g.chanFree[ch] > start {
		g.queueDelay += uint64(g.chanFree[ch] - start)
		start = g.chanFree[ch]
	}
	g.chanFree[ch] = start + g.dramService
	return start + int64(g.cfg.DRAMLatency), true
}

// Stats returns L2 and DRAM counters.
func (g *GPUMem) Stats() (l2Acc, l2Miss, dramReqs, queueDelay uint64) {
	return g.l2Accesses, g.l2Misses, g.dramReqs, g.queueDelay
}

// SMPort is one SM's private view of the memory system: its L1 data cache,
// MSHR table, shared-memory latency, and a handle to the device-level L2/DRAM.
type SMPort struct {
	cfg  config.Config
	l1   *Cache
	mshr *MSHR
	gpu  *GPUMem

	sharedAccesses uint64
	globalAccesses uint64
	stallsMSHR     uint64
}

// NewSMPort builds the per-SM memory port.
func NewSMPort(cfg config.Config, gpu *GPUMem) *SMPort {
	if gpu == nil {
		panic("mem: NewSMPort requires a device-level memory system")
	}
	return &SMPort{
		cfg:  cfg,
		l1:   NewCache(cfg.L1Sets, cfg.L1Ways),
		mshr: NewMSHR(cfg.MSHRPerSM),
		gpu:  gpu,
	}
}

// Expire releases MSHR entries whose fills have returned by cycle now; the
// simulator calls it once per cycle before issue.
func (p *SMPort) Expire(now int64) { p.mshr.ExpireBefore(now) }

// SharedAccess returns the completion cycle of a shared-memory access issued
// at cycle now. Shared memory is a fixed-latency scratchpad; bank conflicts
// are folded into the configured latency.
func (p *SMPort) SharedAccess(now int64) int64 {
	p.sharedAccesses++
	return now + int64(p.cfg.SharedLatency)
}

// CanIssueGlobal reports whether a global access with the given transaction
// fan-out can be accepted this cycle. Admission is conservative: every
// distinct transaction line without an outstanding fill is assumed to need a
// fresh MSHR entry, even if it currently probes as an L1 hit, because an
// earlier transaction of the same warp access can evict that line before it
// is serviced. Duplicate lines in the same access count once: the first
// occurrence allocates the entry and later ones merge with it, so charging
// each repeat a fresh entry would reject accesses the table can in fact hold
// (the coalescer emits duplicates when a strided pattern wraps a small
// working set). An access with no more lines than free entries is accepted
// without counting, and counting stops as soon as the need exceeds the free
// entries; both shortcuts give the full count's verdict. The duplicate scan
// is quadratic but lines is bounded by the warp transaction fan-out (at
// most 8).
func (p *SMPort) CanIssueGlobal(lines []Line) bool {
	free := p.mshr.capacity - p.mshr.InFlight()
	if len(lines) <= free {
		return true
	}
	need := 0
	for i, l := range lines {
		if p.mshr.find(l) >= 0 || slices.Contains(lines[:i], l) {
			continue
		}
		if need++; need > free {
			p.NoteRefused()
			return false
		}
	}
	return true
}

// MSHRGen returns a counter that changes whenever the MSHR's set of
// outstanding lines does. CanIssueGlobal's verdict depends only on the lines
// and that set, so an access refused at one value is refused again at it.
func (p *SMPort) MSHRGen() uint64 { return p.mshr.gen }

// NoteRefused books one admission refusal, exactly as a refusing
// CanIssueGlobal does; callers that cached a refusal under MSHRGen use it.
func (p *SMPort) NoteRefused() { p.NoteRefusals(1) }

// NoteRefusals books n admission refusals at once, as n NoteRefused calls do.
func (p *SMPort) NoteRefusals(n uint64) {
	p.mshr.NoteFull(n)
	p.stallsMSHR += n
}

// Refusals returns the admission refusals booked so far.
func (p *SMPort) Refusals() uint64 { return p.stallsMSHR }

// NextExpiry returns a cycle no later than the earliest one at which Expire
// can release an entry (math.MaxInt64 when none can): until then the MSHR,
// and with it every admission verdict, stays as it is.
func (p *SMPort) NextExpiry() int64 { return p.mshr.minFill }

// GlobalAccess issues one warp global access covering the given lines at
// cycle now and returns its timing. Each line either merges with an
// outstanding fill (a secondary miss completes with it), hits the L1 (covered
// by the base hit latency), or goes to the device and takes a fresh MSHR
// entry carrying its fill cycle. The device sees the misses in line order, and
// the simulator steps SMs in id order, which fixes the order of every L2/DRAM
// access. Callers must have checked CanIssueGlobal in the same cycle.
func (p *SMPort) GlobalAccess(now int64, lines []Line) Result {
	p.globalAccesses++
	res := Result{Transactions: len(lines)}
	latest := now + int64(p.cfg.L1HitLatency)
	for _, l := range lines {
		done, pending := p.mshr.Lookup(l)
		switch {
		case pending:
			p.mshr.NoteMerge()
		case p.l1.Access(l):
			continue
		default:
			var l2miss bool
			done, l2miss = p.gpu.AccessLine(now, l)
			if l2miss {
				res.L2Misses++
			}
			p.mshr.Allocate(l, done)
		}
		res.L1Misses++
		if done > latest {
			latest = done
		}
	}
	res.CompleteAt = latest
	return res
}

// Occupancy returns the number of in-flight miss entries.
func (p *SMPort) Occupancy() int { return p.mshr.InFlight() }

// L1 exposes the L1 cache for statistics.
func (p *SMPort) L1() *Cache { return p.l1 }

// MSHRStats returns the MSHR's allocation, merge and full-stall counters.
func (p *SMPort) MSHRStats() (allocs, merges, fullStalls uint64) { return p.mshr.Stats() }

// Stats returns shared/global access counts and MSHR-full stalls.
func (p *SMPort) Stats() (shared, global, mshrStalls uint64) {
	return p.sharedAccesses, p.globalAccesses, p.stallsMSHR
}

// String summarizes the port state.
func (p *SMPort) String() string {
	return fmt.Sprintf("SMPort{l1miss=%.2f inflight=%d}", p.l1.MissRate(), p.mshr.InFlight())
}
