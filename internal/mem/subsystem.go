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

// stagedKind classifies one line of a staged global access for the resolve
// phase. L1 hits need no record: they are covered by the base hit latency and
// never touch shared state.
const (
	stageMerge  uint8 = iota // secondary miss: read the (patched) MSHR fill cycle
	stageDevice              // primary miss: send to the device, patch the MSHR
)

// stagedOp is one line of a staged access that ResolveStaged must still act
// on. For a merge, fill is the outstanding entry's completion cycle captured
// at stage time, or the pending sentinel when the primary miss sits
// unresolved in this same buffer, in which case the real value is read after
// it is patched (a sentinel can never expire).
type stagedOp struct {
	line Line
	fill int64
	kind uint8
}

// stagedAccess is one warp global access staged during the compute phase: a
// run of nOps entries in the port's op buffer plus the statistics already
// known at stage time.
type stagedAccess struct {
	at           int64
	nOps         int32
	transactions int32
	l1Misses     int32
}

// SMPort is one SM's private view of the memory system: its L1 data cache,
// MSHR table, shared-memory latency, and a handle to the device-level L2/DRAM.
//
// Global accesses go through a stage/resolve pair: StageGlobal performs every
// SM-private effect (L1 fill, MSHR occupancy, merge accounting) and records
// the lines that need the shared device, and ResolveStaged replays those
// lines against the L2/DRAM model. The serial engine resolves immediately
// after staging (GlobalAccess); the parallel engine stages from worker
// goroutines and resolves from its coordinator in canonical (cycle, SM id)
// order. Both engines share the one resolve routine, so they drive the
// device through the same code in the same order.
type SMPort struct {
	cfg  config.Config
	l1   *Cache
	mshr *MSHR
	gpu  *GPUMem

	// Staged-access buffers, reused across cycles (appends allocate only
	// until the high-water mark is reached, keeping the steady state
	// allocation-free).
	stagedOps  []stagedOp
	stagedAccs []stagedAccess
	deviceOps  int // staged ops that need the shared device

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

// HasStagedDevice reports whether any staged op needs the shared device. A
// staging cycle whose accesses all hit the L1 or merge with outstanding fills
// touches nothing outside the SM, so the owning worker may resolve it locally
// without an arbitration point.
func (p *SMPort) HasStagedDevice() bool { return p.deviceOps > 0 }

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

// StageGlobal performs the SM-private half of one warp global access issued
// at cycle now: L1 lookups and fills, MSHR merge accounting and occupancy
// reservation. Lines that need the shared device are recorded for the resolve
// side; nothing here touches state outside the SM, so worker goroutines
// stepping disjoint SMs may stage concurrently. Callers must have checked
// CanIssueGlobal in the same cycle.
func (p *SMPort) StageGlobal(now int64, lines []Line) {
	p.globalAccesses++
	acc := stagedAccess{at: now, transactions: int32(len(lines))}
	for _, l := range lines {
		if fill, pending := p.mshr.Lookup(l); pending {
			// Secondary miss: merge with the outstanding fill.
			p.mshr.NoteMerge()
			acc.l1Misses++
			p.appendOp(stagedOp{line: l, fill: fill, kind: stageMerge})
			acc.nOps++
			continue
		}
		if p.l1.Access(l) {
			continue // L1 hit: covered by the base hit latency
		}
		acc.l1Misses++
		p.mshr.AllocatePending(l)
		p.appendOp(stagedOp{line: l, kind: stageDevice})
		acc.nOps++
	}
	p.stagedAccs = append(p.stagedAccs, acc)
}

// appendOp records one staged line op, counting those that need the device.
func (p *SMPort) appendOp(o stagedOp) {
	p.stagedOps = append(p.stagedOps, o)
	if o.kind == stageDevice {
		p.deviceOps++
	}
}

// ResolveStaged applies every staged access to the shared device in staging
// order, patching MSHR sentinels as it goes, and reports each access's timing
// through fn (i is the access's staging index). A merge op always reads its
// fill after the same-cycle primary to the same line was patched, because ops
// are processed in staging order. With no device op staged it touches only
// SM-private state, so the owning worker may call it without
// synchronization; otherwise callers must resolve ports in ascending SM id
// order with no other port touching the device, as the serial loop and the
// parallel engine's coordinator do.
func (p *SMPort) ResolveStaged(fn func(i int, res Result)) {
	op := 0
	for i := range p.stagedAccs {
		acc := &p.stagedAccs[i]
		res := Result{
			Transactions: int(acc.transactions),
			L1Misses:     int(acc.l1Misses),
		}
		latest := acc.at + int64(p.cfg.L1HitLatency)
		for k := int32(0); k < acc.nOps; k++ {
			o := &p.stagedOps[op]
			var done int64
			switch o.kind {
			case stageMerge:
				done = o.fill
				if done == pendingFill {
					// The primary miss was staged in this same buffer and has
					// just been patched (ops run in staging order).
					var ok bool
					done, ok = p.mshr.Lookup(o.line)
					if !ok || done == pendingFill {
						panic(fmt.Sprintf("mem: staged merge for line %#x with no patched primary", uint64(o.line)))
					}
				}
			case stageDevice:
				var l2miss bool
				done, l2miss = p.gpu.AccessLine(acc.at, o.line)
				if l2miss {
					res.L2Misses++
				}
				p.mshr.Patch(o.line, done)
			}
			if done > latest {
				latest = done
			}
			op++
		}
		res.CompleteAt = latest
		fn(i, res)
	}
	p.stagedOps = p.stagedOps[:0]
	p.stagedAccs = p.stagedAccs[:0]
	p.deviceOps = 0
}

// GlobalAccess issues one warp global access covering the given lines at
// cycle now and returns its timing. It is the serial engine's path: a stage
// followed by an immediate resolve, so serial and parallel runs share one
// implementation and cannot drift. Callers must have checked CanIssueGlobal
// in the same cycle and must not have other accesses staged.
func (p *SMPort) GlobalAccess(now int64, lines []Line) Result {
	if len(p.stagedAccs) != 0 {
		panic("mem: GlobalAccess with accesses already staged — resolve them first")
	}
	p.StageGlobal(now, lines)
	var out Result
	p.ResolveStaged(func(_ int, res Result) { out = res })
	return out
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
