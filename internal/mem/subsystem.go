package mem

import (
	"fmt"
	"math/bits"
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

// memBank is one address bank's slice of the device-level memory system: a
// partition of the unified L2 and the DRAM channels whose index is congruent
// to the bank, plus that partition's statistics. Banks share no state, so the
// parallel engine's resolve phase drains different banks on different worker
// goroutines; the padding keeps the per-bank counters from write-sharing a
// cache line across workers.
type memBank struct {
	l2       *Cache
	chanFree []int64 // next-free cycle of the channels this bank owns

	l2Accesses uint64
	l2Misses   uint64
	dramReqs   uint64
	queueDelay uint64 // accumulated cycles requests waited for a channel

	_ [64]byte
}

// GPUMem is the device-level memory system shared by all SMs: a unified L2
// and a channel-partitioned DRAM model with bounded bandwidth. Access timing
// is computed at issue time, which keeps the model deterministic and cheap
// while still producing realistic latency spreads and queueing under load.
//
// Internally the state is sharded by address bank (line % banks, a power of
// two dividing both L2Sets and DRAMSlots). The sharding is an exact partition
// of the unified model: a line's L2 set and DRAM channel live entirely inside
// its bank, set grouping and channel mapping are bijective with the unified
// indexing, and statistics are merged at report time — so serial access order
// produces bit-identical timing to the pre-sharded implementation, while the
// parallel engine may drain distinct banks concurrently.
type GPUMem struct {
	cfg       config.Config
	banks     []memBank
	bankMask  uint64 // banks-1
	bankShift uint   // log2(banks)
	// dramService is the channel occupancy per request; together with the
	// channel count it sets peak DRAM bandwidth.
	dramService int64
}

// NewGPUMem builds the device-level memory system for cfg.
func NewGPUMem(cfg config.Config) *GPUMem {
	nb := cfg.EffectiveMemBanks()
	if cfg.L2Sets%nb != 0 || cfg.DRAMSlots%nb != 0 || nb&(nb-1) != 0 {
		panic(fmt.Sprintf("mem: %d banks do not partition L2Sets=%d DRAMSlots=%d", nb, cfg.L2Sets, cfg.DRAMSlots))
	}
	g := &GPUMem{
		cfg:         cfg,
		banks:       make([]memBank, nb),
		bankMask:    uint64(nb - 1),
		bankShift:   uint(bits.TrailingZeros(uint(nb))),
		dramService: 4,
	}
	for b := range g.banks {
		g.banks[b].l2 = NewCache(cfg.L2Sets/nb, cfg.L2Ways)
		g.banks[b].chanFree = make([]int64, cfg.DRAMSlots/nb)
	}
	return g
}

// NumBanks returns the bank count of the sharded device state.
func (g *GPUMem) NumBanks() int { return len(g.banks) }

// BankOf returns the bank a line's device state lives in.
func (g *GPUMem) BankOf(line Line) int { return int(uint64(line) & g.bankMask) }

// AccessLine computes the completion cycle of one line transaction entering
// the device at cycle now after missing an SM's L1.
func (g *GPUMem) AccessLine(now int64, line Line) (completeAt int64, l2Miss bool) {
	return g.AccessBank(g.BankOf(line), now, line)
}

// AccessBank is AccessLine against one bank's partition; bank must equal
// BankOf(line). It is the single device-access path: the serial engine routes
// through it inline, and the parallel engine's bank workers call it directly,
// each for a disjoint bank, so the two engines cannot drift.
//
// The line is folded by the bank shift before indexing the partition: lines
// of one bank differ only above the bank bits, so line>>shift is a bijection
// that maps the unified set index s to the partition set s/banks and the
// unified channel c to the partition channel c/banks — the same lines meet in
// the same sets and queues, in the same order, as in the unified model.
func (g *GPUMem) AccessBank(bank int, now int64, line Line) (completeAt int64, l2Miss bool) {
	bk := &g.banks[bank]
	bk.l2Accesses++
	if bk.l2.Access(line >> g.bankShift) {
		return now + int64(g.cfg.L2HitLatency), false
	}
	bk.l2Misses++
	bk.dramReqs++
	ch := int((uint64(line) % uint64(g.cfg.DRAMSlots)) >> g.bankShift)
	start := now
	if bk.chanFree[ch] > start {
		bk.queueDelay += uint64(bk.chanFree[ch] - start)
		start = bk.chanFree[ch]
	}
	bk.chanFree[ch] = start + g.dramService
	return start + int64(g.cfg.DRAMLatency), true
}

// Stats returns L2 and DRAM counters, merged across banks.
func (g *GPUMem) Stats() (l2Acc, l2Miss, dramReqs, queueDelay uint64) {
	for b := range g.banks {
		bk := &g.banks[b]
		l2Acc += bk.l2Accesses
		l2Miss += bk.l2Misses
		dramReqs += bk.dramReqs
		queueDelay += bk.queueDelay
	}
	return
}

// stagedKind classifies one line of a staged global access for the resolve
// phase. L1 hits need no record: they are covered by the base hit latency and
// never touch shared state.
const (
	stageMerge  uint8 = iota // secondary miss: read the (patched) MSHR fill cycle
	stageDevice              // primary miss: send to the device, patch the MSHR
)

// stagedOp is one line of a staged access that the arbitration phase must
// still act on. at is the cycle the access was staged; every op of one
// resolve round shares it. For a merge, fill is the outstanding entry's
// completion cycle captured at stage time, or the pending sentinel when the
// primary miss sits unresolved in this same buffer, in which case the real
// value is read after it is patched (a sentinel can never expire).
type stagedOp struct {
	line Line
	at   int64
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
// the lines that need the shared device, and the resolve side replays those
// lines against the L2/DRAM model. The serial engine resolves immediately
// after staging (GlobalAccess); the parallel engine stages from worker
// goroutines and resolves in canonical order — either inline from a serial
// section (ResolveStaged) or split into a bank phase (ResolveBank, one worker
// per bank partition, recording per-line outcomes) followed by an SM-local
// assembly (FinishStaged). All paths share one assembly routine, so the
// engines drive the device through the same code in the same order.
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

	// Bank-phase buffers, maintained only when bank staging is enabled (the
	// parallel engine): per-bank lists of device-op indices, the per-op
	// outcomes written by bank workers (disjoint indices, so no locking),
	// and the count of device ops staged since the last resolve.
	bankStage    bool
	stagedByBank [][]int32
	doneAt       []int64
	doneMiss     []bool
	deviceOps    int

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

// SetBankStaging switches the per-bank routing buffers on or off. The
// parallel engine enables it for the duration of a run; the serial engine
// leaves it off so GlobalAccess pays nothing for the machinery.
func (p *SMPort) SetBankStaging(on bool) {
	p.bankStage = on
	if on && p.stagedByBank == nil {
		p.stagedByBank = make([][]int32, p.gpu.NumBanks())
	}
	if !on {
		for b := range p.stagedByBank {
			p.stagedByBank[b] = p.stagedByBank[b][:0]
		}
		p.stagedOps = p.stagedOps[:0]
		p.stagedAccs = p.stagedAccs[:0]
		p.doneAt = p.doneAt[:0]
		p.doneMiss = p.doneMiss[:0]
		p.deviceOps = 0
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
			p.appendOp(stagedOp{line: l, at: now, fill: fill, kind: stageMerge})
			acc.nOps++
			continue
		}
		if p.l1.Access(l) {
			continue // L1 hit: covered by the base hit latency
		}
		acc.l1Misses++
		p.mshr.AllocatePending(l)
		p.appendOp(stagedOp{line: l, at: now, kind: stageDevice})
		acc.nOps++
	}
	p.stagedAccs = append(p.stagedAccs, acc)
}

// appendOp records one staged line op, routing device ops to their bank list
// when bank staging is on.
func (p *SMPort) appendOp(o stagedOp) {
	idx := int32(len(p.stagedOps))
	p.stagedOps = append(p.stagedOps, o)
	if o.kind == stageDevice {
		p.deviceOps++
		if p.bankStage {
			b := p.gpu.BankOf(o.line)
			p.stagedByBank[b] = append(p.stagedByBank[b], idx)
		}
	}
	if p.bankStage {
		p.doneAt = append(p.doneAt, 0)
		p.doneMiss = append(p.doneMiss, false)
	}
}

// ResolveBank replays several ports' staged device ops for one bank in
// (port, staging-index) order, recording each line's completion cycle and L2
// outcome for FinishStaged. ports must be in canonical (SM id) order and all
// of their ops must share one staging cycle, as in the parallel engine's
// resolve rounds, so this order is the bank's projection of the serial
// device order. Different banks may resolve concurrently (disjoint
// doneAt/doneMiss indices, bank-local device state).
func ResolveBank(ports []*SMPort, bank int) {
	for _, p := range ports {
		for _, idx := range p.stagedByBank[bank] {
			o := &p.stagedOps[idx]
			p.doneAt[idx], p.doneMiss[idx] = p.gpu.AccessBank(bank, o.at, o.line)
		}
	}
}

// ResolveStaged applies every staged access to the shared device inline, in
// staging order, and reports each access's timing through fn (i is the
// access's staging index). It is the serial-section resolve: the only caller
// ordering requirement is ascending SM id, as the serial loop produces.
func (p *SMPort) ResolveStaged(fn func(i int, res Result)) {
	p.assemble(false, fn)
}

// FinishStaged assembles access timings from bank-phase outcomes (the bank
// phase must have covered every staged device op), patches the MSHR, and reports
// each access through fn. It touches only SM-private state, so the owning
// worker runs it without synchronization. It also serves staging cycles with
// no device ops at all (pure L1 hits and merges), where there is nothing to
// resolve and assembly is the entire job.
func (p *SMPort) FinishStaged(fn func(i int, res Result)) {
	p.assemble(true, fn)
}

// assemble walks the staged accesses in order, obtaining each device line's
// completion either inline from the device (serial resolve) or from the
// bank-phase outcome buffers, patching MSHR sentinels as it goes — a merge op
// always reads its fill after the same-cycle primary to the same line was
// patched, because ops are processed in staging order. It then clears every
// staged buffer.
func (p *SMPort) assemble(banked bool, fn func(i int, res Result)) {
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
				if banked {
					done, l2miss = p.doneAt[op], p.doneMiss[op]
					if done == 0 {
						panic(fmt.Sprintf("mem: staged device op for line %#x not resolved by any bank", uint64(o.line)))
					}
				} else {
					done, l2miss = p.gpu.AccessLine(o.at, o.line)
				}
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
	if p.bankStage {
		p.doneAt = p.doneAt[:0]
		p.doneMiss = p.doneMiss[:0]
		for b := range p.stagedByBank {
			p.stagedByBank[b] = p.stagedByBank[b][:0]
		}
	}
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
