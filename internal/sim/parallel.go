package sim

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"warpedgates/internal/mem"
)

// The parallel engine: the SM array is stepped by several worker goroutines
// while every observable stays bit-identical to the serial loop in GPU.Run.
//
// The engine alternates two kinds of phases, separated by a sense-reversing
// barrier whose last arriver runs a short coordinator section (advance).
//
// Compute phase. Workers step disjoint SM sets, which are not fixed shards:
// each window, workers claim SM indices one at a time from a shared atomic
// counter (reset by the coordinator when it opens the window), so a worker
// whose claimed SMs all jumped ahead or drained keeps claiming live SMs
// instead of spinning at the barrier while another worker steps a long shard
// alone. Claiming only decides *which goroutine* steps an SM — every per-SM
// observable (pos, pendingAt, staged ops) lives in per-SM slots written
// solely by the claiming worker within the window and handed across the
// barrier, so any claim interleaving produces byte-identical results. Each
// SM runs at its own position pos[i] through a window ending at winEnd (at
// most windowCycles past the frontier): sm.step touches only SM-private
// state (warp tables, pipes, gating controllers, L1, MSHR) and *stages*
// global-memory requests on its port (sm.memStage) instead of calling the
// shared L2/DRAM inline. A staging cycle whose lines all hit the L1 or merge
// with the SM's own outstanding fills touches nothing shared, so the worker
// finishes it locally and keeps stepping; a cycle that needs the device
// parks the SM (pendingAt[i]) until an arbitration phase replays its ops.
// Stepping SMs at their own positions rather than a global clock is exact
// because a serial step below an SM's jump target is a no-op: the serial
// clock only ever lands on some SM's wake cycle, and cycles where only
// *other* SMs wake are invisible to this one.
//
// Arbitration phase. Staged device ops must hit the shared L2/DRAM in the
// serial engine's order: ascending (cycle, SM id, staging index). Two
// mechanisms provide it without a serial section. First, ordering: an op
// staged at cycle c is resolvable only once every live unparked SM has
// advanced past c (c < frontier) — nothing can stage at ≤ c anymore — and a
// round resolves only the SMs parked at the earliest such cycle, pmin, in
// SM-id order, so every op of a round shares one cycle. The earliest parked
// op is always resolvable, so the engine cannot stall. Second, bank
// sharding: the device state is partitioned by address bank (mem.GPUMem),
// lines of different banks share no cache set, channel or counter, so the
// per-bank projections of the canonical order are independent and each
// worker drains the banks of its own bank range concurrently. The parked
// SMs' deferred writebacks are then booked by whichever worker claims each
// SM (finishMemory) at the start of the next compute phase.
//
// The determinism argument rests on the same three properties of sm.step as
// before — it touches nothing outside its SM once memory is staged, its
// return value never depends on memory resolution, and everything resolution
// patches is only read by a later step — plus the bank partition's exactness
// (see mem.GPUMem) and the frontier ordering rule above.
//
// Worker growth. A run handed a WorkerPool (GPU.SetWorkerPool) may gain
// workers while it runs: each time the coordinator opens a compute window it
// polls the pool, and for every lease granted it spawns a joiner goroutine
// parameterized with the epoch value that opens the window. The joiner spins
// until the epoch reaches that value and then enters the normal worker loop,
// so it participates in exactly the phases the incremented worker count
// expects — the barrier count and the worker population change atomically at
// one epoch boundary, never mid-phase. Growth re-partitions claim order and
// bank ranges only; like stealing it cannot move any op's resolve cycle, so
// results stay byte-identical at any allocation history. Leases are returned
// to the pool when the run exits.

// windowCycles bounds how many device cycles workers may step their SMs past
// the frontier between arbitration points when no SM has a staged device
// access pending. Staging mid-window parks the staging SM at that cycle, so
// any length is bit-identical to the serial engine; the length only trades
// barrier frequency against re-alignment granularity. 128 was tuned from the
// bench barrier-overhead curve: halving the barrier rounds from 64 recovered
// ~2% wall on the stepped matrix, while 256 bought little more.
const windowCycles = 128

// spinYield is how many barrier polls a worker burns before yielding the
// processor. Small enough to stay polite on oversubscribed machines, large
// enough to catch the common case where the coordinator section is a few
// hundred nanoseconds.
const spinYield = 64

// parOp is the phase the workers run next, written by the coordinator.
type parOp int32

const (
	opCompute parOp = iota // step claimed SMs through the window
	opResolve              // drain resolveList's staged ops, bank-sharded
	opExit                 // run over; workers return
)

// shardResult is one worker's per-compute-phase contribution, padded to a
// cache line so workers never write-share: how many of its SMs drained and
// the latest cycle one drained at.
type shardResult struct {
	drained  int64
	maxDrain int64
	_        [48]byte
}

// parRun is the shared state of one parallel run. The scalar fields and
// resolveList are owned by the coordinator section; workers read them only
// after observing the epoch advance that the coordinator precedes. pos,
// pendingAt and needFinal slots are handed back and forth between an SM's
// owning worker and the coordinator across the same barrier.
type parRun struct {
	g *GPU
	// ctxDone is the run context's cancellation channel (nil when the context
	// cannot be canceled); the coordinator polls it once per barrier round and
	// flips canceled, which exits every worker within one compute window.
	ctxDone  <-chan struct{}
	canceled bool

	// workers is the current worker population. It is written only inside the
	// coordinator section (growth) but read in the barrier hot path by every
	// worker, concurrently with that write, so it is atomic.
	workers    atomic.Int32
	maxWorkers int32      // growth ceiling: len(g.sms)
	pool       WorkerPool // nil = fixed allocation
	acquired   int        // pool leases held, returned after the run
	wg         *sync.WaitGroup

	maxCycles int64
	nBanks    int
	shards    []shardResult

	arrived atomic.Int32
	epoch   atomic.Uint32
	// claim is the shared steal index: the next SM index to step this compute
	// window. The coordinator resets it to zero when it opens a window.
	claim atomic.Int64

	op     parOp
	winEnd int64 // first cycle past the current compute window

	pos       []int64 // per SM: next cycle to step
	pendingAt []int64 // per SM: cycle of its parked staged ops, -1 = none
	needFinal []bool  // per SM: resolved ops await finishMemory
	resolve   []int32 // SM ids to drain this arbitration phase, canonical order

	// resolvePorts mirrors resolve as memory ports (same order); it is the
	// bank phase's input, built by the coordinator when it schedules
	// opResolve.
	resolvePorts []*mem.SMPort

	live     int
	maxDrain int64
}

// runParallel is the parallel counterpart of the serial loop in Run.
func (g *GPU) runParallel(ctx context.Context, workers int) (*Report, error) {
	live := 0
	for _, sm := range g.sms {
		if sm.done() {
			sm.drained = true
		} else {
			live++
		}
		sm.memStage = true
		sm.memPort.SetBankStaging(true)
	}
	var canceled bool
	if live > 0 {
		maxW := len(g.sms)
		pr := &parRun{
			g:          g,
			ctxDone:    ctx.Done(),
			maxWorkers: int32(maxW),
			pool:       g.pool,
			maxCycles:  int64(g.cfg.MaxCycles),
			nBanks:     g.gmem.NumBanks(),
			shards:     make([]shardResult, maxW),
			pos:        make([]int64, len(g.sms)),
			pendingAt:  make([]int64, len(g.sms)),
			needFinal:  make([]bool, len(g.sms)),
			live:       live,
			maxDrain:   -1,
		}
		// A pool may top the allocation up before the first window too: jobs
		// admitted when the job queue is already shorter than the worker
		// budget start with the surplus instead of waiting for a boundary.
		if pr.pool != nil && workers < maxW {
			if got := pr.pool.TryAcquire(maxW - workers); got > 0 {
				pr.acquired += got
				workers += got
			}
		}
		pr.workers.Store(int32(workers))
		for i := range g.sms {
			pr.pos[i] = g.cycle
			pr.pendingAt[i] = -1
		}
		pr.winEnd = g.cycle + windowCycles
		if pr.maxCycles > 0 && pr.winEnd > pr.maxCycles {
			pr.winEnd = pr.maxCycles
		}
		var wg sync.WaitGroup
		pr.wg = &wg
		start := pr.epoch.Load()
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				pr.worker(w, start)
			}(w)
		}
		pr.worker(0, start)
		wg.Wait()
		if pr.pool != nil && pr.acquired > 0 {
			pr.pool.Release(pr.acquired)
		}
		canceled = pr.canceled
	}
	for _, sm := range g.sms {
		sm.finish()
		sm.memStage = false
		sm.memPort.SetBankStaging(false)
		sm.stagedRet = sm.stagedRet[:0]
	}
	if canceled {
		return nil, g.canceled(ctx)
	}
	return g.report(), nil
}

// worker runs whichever phase the coordinator scheduled — claiming SM
// indices from the shared steal counter in compute phases, and draining the
// bank range [w*B/W, (w+1)*B/W) in arbitration phases. The last worker to
// arrive at the barrier runs the coordinator section and releases the others
// by advancing the epoch. sentinel is the epoch value that opened the
// worker's first phase: 0 for the initial population, the joining epoch for
// workers a pool grew in later. The bank range is recomputed per phase
// because growth changes W at epoch boundaries.
func (pr *parRun) worker(w int, sentinel uint32) {
	for {
		if pr.op == opCompute {
			pr.compute(w)
		} else {
			W := int(pr.workers.Load())
			for b := w * pr.nBanks / W; b < (w+1)*pr.nBanks/W; b++ {
				mem.ResolveBank(pr.resolvePorts, b)
			}
		}
		if pr.arrived.Add(1) == pr.workers.Load() {
			pr.advance()
			pr.arrived.Store(0)
			pr.epoch.Add(1)
		} else {
			for spins := 0; pr.epoch.Load() == sentinel; spins++ {
				if spins >= spinYield {
					runtime.Gosched()
				}
			}
		}
		sentinel++
		if pr.op == opExit {
			return
		}
	}
}

// join is the entry point of a worker the coordinator grew in mid-run: it
// waits for the epoch that opens the compute window it was hired for, then
// runs the normal loop.
func (pr *parRun) join(w int, start uint32) {
	defer pr.wg.Done()
	for spins := 0; pr.epoch.Load() != start; spins++ {
		if spins >= spinYield {
			runtime.Gosched()
		}
	}
	pr.worker(w, start)
}

// compute steps SMs through the current window, claimed one at a time from
// the shared steal index. Each SM first books writebacks left from the
// previous arbitration phase (finishMemory), then steps from its own position
// until the window ends, it drains, or it stages a device access and parks.
// Pure-L1 staging cycles are finished inline: they read nothing shared, and
// the merge fills they look up cannot be unpatched sentinels because the SM
// parks before any unresolved device op could linger.
func (pr *parRun) compute(w int) {
	g := pr.g
	end := pr.winEnd
	var drained int64
	maxDrain := int64(-1)
	for n := len(g.sms); ; {
		i := int(pr.claim.Add(1)) - 1
		if i >= n {
			break
		}
		sm := g.sms[i]
		if pr.needFinal[i] {
			pr.needFinal[i] = false
			sm.finishMemory()
		}
		if sm.drained || pr.pendingAt[i] >= 0 {
			continue
		}
		c := pr.pos[i]
		for c < end {
			stepped := c
			c = sm.step(stepped)
			if len(sm.stagedRet) > 0 && !sm.memPort.HasStagedDevice() {
				sm.finishMemory()
			}
			parked := sm.memPort.HasStagedDevice()
			if parked {
				pr.pendingAt[i] = stepped
			}
			if sm.drained {
				drained++
				if stepped > maxDrain {
					maxDrain = stepped
				}
				break
			}
			if parked {
				break
			}
		}
		pr.pos[i] = c
	}
	s := &pr.shards[w]
	s.drained, s.maxDrain = drained, maxDrain
}

// advance is the coordinator section, run once per barrier with every worker
// parked: fold the phase's results, schedule resolvable staged ops, decide
// termination, or open the next compute window. It polls the run context
// first — one poll per barrier round bounds cancellation latency to a single
// compute window without touching the workers' hot loops.
func (pr *parRun) advance() {
	g := pr.g
	if pr.ctxDone != nil {
		select {
		case <-pr.ctxDone:
			pr.canceled = true
			pr.op = opExit
			return
		default:
		}
	}
	if pr.op == opResolve {
		// The bank phase covered every scheduled SM's device ops; their
		// owning workers book the writebacks next compute phase.
		for _, idx := range pr.resolve {
			pr.pendingAt[idx] = -1
			pr.needFinal[idx] = true
		}
		pr.resolve = pr.resolve[:0]
		pr.resolvePorts = pr.resolvePorts[:0]
	} else {
		for i := range pr.shards {
			s := &pr.shards[i]
			pr.live -= int(s.drained)
			if s.maxDrain > pr.maxDrain {
				pr.maxDrain = s.maxDrain
			}
			s.drained, s.maxDrain = 0, -1
		}
	}
	for {
		// frontier is the earliest cycle any unparked live SM will step
		// next; pmin is the earliest parked staging cycle. Parked SMs are
		// excluded from the frontier (they stage nothing until resolved), as
		// are drained ones — if only parked SMs remain it is unbounded.
		frontier := int64(math.MaxInt64)
		pmin := int64(math.MaxInt64)
		pendingN := 0
		for i, sm := range g.sms {
			if at := pr.pendingAt[i]; at >= 0 {
				pendingN++
				if at < pmin {
					pmin = at
				}
				continue
			}
			if sm.drained {
				continue
			}
			if pr.pos[i] < frontier {
				frontier = pr.pos[i]
			}
		}
		if pendingN > 0 {
			// Drain only the ops at the earliest parked cycle: no unparked
			// SM can stage at or before it (frontier), and every other
			// parked SM resumes after its own later cycle — whereas a
			// later-cycle op is not safe yet, because the SM parked at pmin
			// resumes at pmin+1 and may stage again in between.
			if pmin < frontier {
				for i := range g.sms {
					if pr.pendingAt[i] == pmin {
						pr.resolve = append(pr.resolve, int32(i))
					}
				}
			}
			if len(pr.resolve) == 1 {
				// One parked SM: a bank phase would spend a barrier round to
				// parallelize work one goroutine can do here in place.
				idx := pr.resolve[0]
				g.sms[idx].resolveMemoryInline()
				pr.pendingAt[idx] = -1
				pr.resolve = pr.resolve[:0]
				continue // its ops may unblock the next parked cycle
			}
			if len(pr.resolve) > 0 {
				for _, idx := range pr.resolve {
					pr.resolvePorts = append(pr.resolvePorts, g.sms[idx].memPort)
				}
				pr.op = opResolve
				return
			}
		}
		// No resolvable ops and none parked below the frontier: termination
		// has the serial loop's semantics. A run whose last SM drains is
		// complete even if the next cycle would cross MaxCycles; a run whose
		// every SM sits at or past the cap with work left ran out, its clock
		// clamped to the cap (the MaxCycles-overshoot rule).
		if pr.live == 0 && pendingN == 0 {
			g.cycle = pr.maxDrain + 1
			if pr.maxCycles > 0 && g.cycle > pr.maxCycles {
				g.cycle = pr.maxCycles
			}
			pr.op = opExit
			return
		}
		if pr.maxCycles > 0 && frontier >= pr.maxCycles && pendingN == 0 {
			g.cycle = pr.maxCycles
			g.ranOut = true
			pr.op = opExit
			return
		}
		g.cycle = frontier
		end := frontier + windowCycles
		if pendingN > 0 && pmin+1 < end {
			// An SM is still parked beyond the frontier: its ops unblock the
			// moment every other SM passes its cycle, so stop the window
			// right there instead of letting the leaders run a full window
			// while it idles. (pmin >= frontier here — anything earlier was
			// resolved above — so the window still advances.)
			end = pmin + 1
		}
		if pr.maxCycles > 0 && end > pr.maxCycles {
			end = pr.maxCycles
		}
		// A compute window is about to open: this is the only point worker
		// growth happens. Lease whatever the pool can spare up to the SM
		// count, spawn the joiners parameterized with the epoch that opens
		// this window, and publish the bigger population — the joiners enter
		// exactly when the current workers do, so the barrier count and the
		// worker set change together at one epoch boundary.
		if pr.pool != nil {
			if room := int(pr.maxWorkers - pr.workers.Load()); room > 0 {
				if got := pr.pool.TryAcquire(room); got > 0 {
					pr.acquired += got
					w0 := int(pr.workers.Load())
					start := pr.epoch.Load() + 1
					for k := 0; k < got; k++ {
						pr.wg.Add(1)
						go pr.join(w0+k, start)
					}
					pr.workers.Store(int32(w0 + got))
				}
			}
		}
		pr.claim.Store(0)
		pr.winEnd = end
		pr.op = opCompute
		return
	}
}
