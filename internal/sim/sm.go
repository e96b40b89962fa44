package sim

import (
	"fmt"
	"math"
	"math/bits"

	"warpedgates/internal/config"
	"warpedgates/internal/gating"
	"warpedgates/internal/isa"
	"warpedgates/internal/mem"
	"warpedgates/internal/sched"
	"warpedgates/internal/stats"
)

// retireRingSize is how many cycles ahead the retire ring books a writeback
// directly; a booking at least that far ahead waits in the SM's overflow
// heap instead. Every benchmark writeback lands well inside it (the default
// machines book none 512 or more cycles ahead), so the heap stays empty
// unless a configuration stretches memory latency. Power of two for cheap
// masking.
const retireRingSize = 1 << 10

// retireEvent is a scheduled writeback: clear dstMask in the scoreboard of
// warp slot warp at cycle at, guarded by the warp-slot generation to survive
// slot reuse. Events live in a per-SM free-list arena (retirePool) and chain
// through next, so scheduling one never allocates once the pool has grown to
// the SM's maximum in-flight count — a slice-of-slices ring converges on
// zero allocations only asymptotically, as random completion bursts keep
// finding buckets below their high-water capacity. An event holds no
// pointer, so the arena is nothing for the collector to scan or to guard.
type retireEvent struct {
	dstMask uint64
	at      int64
	gen     uint32
	warp    int32 // warp slot
	next    int32 // pool index of the next event in the same bucket, -1 ends
}

// SMStats aggregates the per-SM counters the figures are computed from.
type SMStats struct {
	Cycles          int64
	IssuedByClass   [isa.NumClasses]uint64
	IssuedTotal     uint64
	ActiveWarpSum   uint64 // sum over cycles of active-set size (Fig. 5b avg)
	ActiveWarpMax   int    // peak active-set size (Fig. 5b max)
	IssueStallsMem  uint64 // candidate failed on MSHR/port hazard
	IssueStallsGate uint64 // candidate failed because all target pipes were gated
	CTAsCompleted   int
}

// SM is one streaming multiprocessor: warp table, dual schedulers, execution
// pipes with per-domain gating controllers, and a private memory port.
//
// The per-cycle hot path runs on incrementally maintained state instead of
// rescans: warp readiness lives in uint64 bitsets and per-class counters that
// are updated at the transition points (launch, issue, writeback, finish) by
// refreshWarp, and the retire ring keeps an occupancy bitmap so the next
// scheduled writeback can be found without walking the ring. On top of that
// state the step is event-driven: a class's gating controllers are ticked
// only when an input or an event changes them (tickGating), and after a
// cycle that issued nothing the SM jumps to its horizon, the first cycle
// that can differ from the one just stepped (see step and horizon).
type SM struct {
	id  int
	cfg config.Config

	prog  *program // the kernel, decoded
	warps []Warp

	// ctasRemaining counts CTAs not yet launched; ctaLive tracks live warps
	// per resident CTA slot so finished CTAs can be replaced.
	ctasRemaining int
	ctaLive       []int
	warpSeq       uint64 // monotonically increasing warp launch counter

	// Incrementally maintained warp-table state (the paper's ACTV/RDY
	// registers, kept exact at every mutation instead of recomputed):
	// bit i of each mask refers to warp slot i, hence the 64-warp bound
	// enforced by config.Validate.
	activeMask uint64                 // state == WarpActive
	readyCls   [isa.NumClasses]uint64 // ready() warps by next-instruction class
	readyShrd  uint64                 // the ready warps whose next access is shared
	liveMask   uint64                 // active or pending-mem
	actv       [isa.NumClasses]int    // active warps per next-instruction class
	rdy        [isa.NumClasses]int    // ready warps per next-instruction class
	emptySlots int                    // CTA slots currently holding no live warps
	drained    bool                   // all CTAs launched and every warp finished

	policies []sched.Policy
	gatesPol *sched.GATES // non-nil when the GATES policy is active
	slotMask []uint64     // per scheduler slot: the bits of its warps

	intPipes []*Pipe
	fpPipes  []*Pipe
	sfuPipe  *Pipe
	ldstPipe *Pipe

	// pipes is the fixed all-pipes order (INT clusters, FP clusters, SFU,
	// LDST) used by probes and reporting, precomputed so the hot path never
	// allocates.
	pipes []*Pipe

	intCoord *gating.Coordinator
	fpCoord  *gating.Coordinator
	intAdapt *gating.AdaptiveIdleDetect
	fpAdapt  *gating.AdaptiveIdleDetect
	// groups holds each class's gating domains, indexed by class.
	groups [isa.NumClasses]gateGroup

	memPort *mem.SMPort

	// retireHead holds each bucket's event-list head as a retirePool index
	// (-1 = empty); retireFree heads the free list threaded through the same
	// pool.
	retireHead [retireRingSize]int32
	retirePool []retireEvent
	retireFree int32
	// retireBits marks populated retire buckets (one bit per bucket) and
	// retireCount totals the events pending in the ring, so the horizon can
	// locate the next writeback in a handful of word scans.
	retireBits  [retireRingSize / 64]uint64
	retireCount int
	// retireFar is a min-heap, by at, of the retirePool indices of events
	// booked retireRingSize or more cycles ahead.
	retireFar []int32

	// ffEnabled is false on the stepped reference loop (newGPU). skipUntil
	// is the first cycle the SM has not simulated: step returns it for any
	// earlier cycle, which a jump has already accounted. stepLimit caps
	// every jump: MaxCycles, or the sampler's next window boundary.
	ffEnabled bool
	// ungated marks a machine whose controllers never tick on their own
	// (GateNone, no adaptive window): they never leave Active, raise no
	// demand and fall due never, so tickGating has nothing to do and the
	// owed cycles settle when a pipe starts or the run ends.
	ungated   bool
	skipUntil int64
	stepLimit int64

	// order is the issue-order walk the scheduler slots reuse every cycle.
	order sched.Order
	// gateBlocked has bit c set once class c's pipes refused an issue this
	// cycle; memBlocked marks that a global access failed MSHR admission this
	// cycle while the LDST pipe could start. The walk skips the warps they
	// cover (skipGate, skipMem) and issue books them without trying them.
	gateBlocked uint8
	memBlocked  bool

	benchSeed uint64
	st        SMStats
	smState   sched.SMState
	tracer    IssueTracer
	probe     CycleProbe
	laneBuf   []LaneState
}

// gateGroup is the gating of one instruction class: its pipes' controllers,
// plus the coordinator and adaptive idle-detect that drive them (INT and FP
// only, and only when the configuration turns them on). A controller's
// inputs are its pipe's busy flag and the demand and directives staged for
// it, which depend only on whether the class's ready work wants more pipes
// powered (wantsMore), on whether its ACTV snapshot is zero, and on the
// controllers' states. Each tick stages the next cycle's inputs; while they
// hold and no controller event is due, every cycle repeats them but for the
// busy flag, which follows the pipe's drain cycle. So tickGating leaves the
// group unticked, and settle applies the owed cycles in closed form once an
// input changes or the event arrives — or, before an idle pipe starts an
// instruction, up to that cycle (commitIssue). Each pipe keeps the cycle of
// its controller's next event and the group their earliest, with the
// adaptive epoch end; a start moves only the started pipe's.
type gateGroup struct {
	class isa.Class
	pipes []*Pipe
	// coord is set for INT and FP, whose all-in-blackout flag GATES reads;
	// coordinated marks that the coordinator also issues directives.
	coord       *gating.Coordinator
	coordinated bool
	adapt       *gating.AdaptiveIdleDetect

	width    int    // pipes the ready work can use at once: min(issue width, pipes)
	serving  int    // pipes powered (active or waking) when the inputs were staged
	demand   bool   // whether the ready work wanted more then (see wantsMore)
	actv     bool   // coordinated only: whether the ACTV snapshot was nonzero then
	settled  int64  // first cycle not yet ticked
	epochEnd int64  // the adaptive window's next epoch end, or math.MaxInt64
	due      int64  // the earliest of epochEnd and the pipes' dues
	prevCrit uint64 // the pipes' cumulative critical wakeups at the latest tick
}

// refreshDue recomputes g.due from the epoch end and the pipes' dues.
func (g *gateGroup) refreshDue() {
	g.due = g.epochEnd
	for _, p := range g.pipes {
		g.due = min(g.due, p.due)
	}
}

// settle applies the ticks owed for cycles before end under the staged
// inputs: busy until each pipe drains, idle after.
func (g *gateGroup) settle(end int64) {
	g.settlePipes(end)
	if n := end - g.settled; n > 0 {
		if g.adapt != nil {
			g.adapt.AdvanceIdle(n)
		}
		g.settled = end
	}
}

// settlePipes applies the pipes' owed ticks before end (see Pipe.settle).
func (g *gateGroup) settlePipes(end int64) {
	for _, p := range g.pipes {
		p.settle(end)
	}
}

// after returns now+k, saturating at math.MaxInt64 for a k that never comes.
func after(now, k int64) int64 {
	if k >= math.MaxInt64-now {
		return math.MaxInt64
	}
	return now + k
}

// newSM builds one SM with its pipes, controllers and scheduler slots.
func newSM(id int, cfg config.Config, prog *program, gpuMem *mem.GPUMem, benchSeed uint64, stepped bool) *SM {
	k := prog.kernel
	sm := &SM{
		id:        id,
		cfg:       cfg,
		prog:      prog,
		memPort:   mem.NewSMPort(cfg, gpuMem),
		benchSeed: benchSeed,
		ffEnabled: !stepped,
		ungated:   cfg.Gating == config.GateNone && !cfg.AdaptiveIdleDetect,
		stepLimit: math.MaxInt64,
	}
	if cfg.MaxCycles > 0 {
		sm.stepLimit = int64(cfg.MaxCycles)
	}
	for i := range sm.retireHead {
		sm.retireHead[i] = -1
	}
	sm.retireFree = -1

	// Adaptive idle-detect state is per instruction type (paper §5.1:
	// "different idle-detect values for INT and FP").
	sm.intAdapt = gating.NewAdaptiveIdleDetect(cfg)
	sm.fpAdapt = gating.NewAdaptiveIdleDetect(cfg)

	mkCtrl := func(kind config.GatingKind, idle *gating.AdaptiveIdleDetect) *gating.Controller {
		return gating.NewController(kind, idle, cfg.BreakEven, cfg.WakeupDelay)
	}
	// SFU and LDST are gated conventionally whenever gating is enabled: the
	// paper's blackout machinery targets the clustered INT/FP CUDA cores
	// (§3: conventional gating suffices for the rare SFU traffic). The
	// BlackoutAux extension applies Naive Blackout there as well (single
	// clusters cannot be coordinated).
	auxKind := cfg.Gating
	if auxKind == config.GateNaiveBlackout || auxKind == config.GateCoordBlackout {
		if cfg.BlackoutAux {
			auxKind = config.GateNaiveBlackout
		} else {
			auxKind = config.GateConventional
		}
	}
	fixedIdle := gating.FixedIdleDetect(cfg.IdleDetect)

	var intCtrls, fpCtrls []*gating.Controller
	for c := 0; c < cfg.NumSPClusters; c++ {
		ic := mkCtrl(cfg.Gating, sm.intAdapt)
		fc := mkCtrl(cfg.Gating, sm.fpAdapt)
		intCtrls = append(intCtrls, ic)
		fpCtrls = append(fpCtrls, fc)
		sm.intPipes = append(sm.intPipes, newPipe(isa.INT, c, ic))
		sm.fpPipes = append(sm.fpPipes, newPipe(isa.FP, c, fc))
	}
	sm.intCoord = gating.NewCoordinator(cfg.Gating, intCtrls...)
	sm.fpCoord = gating.NewCoordinator(cfg.Gating, fpCtrls...)
	sm.sfuPipe = newPipe(isa.SFU, 0, mkCtrl(auxKind, fixedIdle))
	sm.ldstPipe = newPipe(isa.LDST, 0, mkCtrl(auxKind, fixedIdle))

	sm.pipes = make([]*Pipe, 0, len(sm.intPipes)+len(sm.fpPipes)+2)
	sm.pipes = append(sm.pipes, sm.intPipes...)
	sm.pipes = append(sm.pipes, sm.fpPipes...)
	sm.pipes = append(sm.pipes, sm.sfuPipe, sm.ldstPipe)
	sm.laneBuf = make([]LaneState, 0, len(sm.pipes))
	sm.groups = [isa.NumClasses]gateGroup{
		isa.INT:  {class: isa.INT, pipes: sm.intPipes, coord: sm.intCoord},
		isa.FP:   {class: isa.FP, pipes: sm.fpPipes, coord: sm.fpCoord},
		isa.SFU:  {class: isa.SFU, pipes: []*Pipe{sm.sfuPipe}},
		isa.LDST: {class: isa.LDST, pipes: []*Pipe{sm.ldstPipe}},
	}
	coordinated := cfg.Gating == config.GateCoordBlackout
	sm.groups[isa.INT].coordinated, sm.groups[isa.FP].coordinated = coordinated, coordinated
	if cfg.AdaptiveIdleDetect {
		sm.groups[isa.INT].adapt, sm.groups[isa.FP].adapt = sm.intAdapt, sm.fpAdapt
	}
	for i := range sm.groups {
		sm.stageInputs(&sm.groups[i])
	}

	// Scheduler slots. GATES shares one priority register per SM (Fig. 7),
	// so a single policy instance serves both slots.
	switch cfg.Scheduler {
	case config.SchedGATES:
		g := sched.NewGATES()
		g.MaxHold = cfg.GATESMaxHold
		sm.gatesPol = g
		for i := 0; i < cfg.NumSchedulers; i++ {
			sm.policies = append(sm.policies, g)
		}
	case config.SchedTwoLevel:
		for i := 0; i < cfg.NumSchedulers; i++ {
			sm.policies = append(sm.policies, sched.NewTwoLevel())
		}
	}

	for i := range sm.groups {
		g := &sm.groups[i]
		g.width = min(len(sm.policies), len(g.pipes))
		if sm.ungated {
			// Never ticked, so never due (see ungated).
			for _, p := range g.pipes {
				p.due = math.MaxInt64
			}
			g.epochEnd = math.MaxInt64
			g.refreshDue()
		}
	}

	// Warp table: enough slots for the resident CTAs, capped by the SM limit.
	conc := k.MaxConcurrentCTAs
	if max := cfg.MaxWarpsPerSM / k.WarpsPerCTA; conc > max && max > 0 {
		conc = max
	}
	if conc == 0 {
		conc = 1
	}
	nWarps := conc * k.WarpsPerCTA
	if nWarps > cfg.MaxWarpsPerSM {
		nWarps = cfg.MaxWarpsPerSM
	}
	if nWarps > 64 {
		panic(fmt.Sprintf("sim: warp table of %d slots exceeds the 64-bit scheduler bitsets", nWarps))
	}
	sm.warps = make([]Warp, nWarps)
	for i := range sm.warps {
		sm.warps[i] = Warp{id: i, state: WarpIdleSlot}
	}
	sm.ctaLive = make([]int, conc)
	sm.ctasRemaining = k.CTAsPerSM
	sm.emptySlots = conc
	sm.smState.NumWarps = nWarps

	// Scheduler-slot warp partitions.
	nsched := len(sm.policies)
	sm.slotMask = make([]uint64, nsched)
	for i := 0; i < nWarps; i++ {
		sm.slotMask[i%nsched] |= 1 << uint(i)
	}

	// Launch the first wave.
	for slot := 0; slot < conc; slot++ {
		sm.launchCTA(slot)
	}
	return sm
}

// launchCTA fills CTA slot with fresh warps, if work remains.
func (sm *SM) launchCTA(slot int) {
	if sm.ctasRemaining <= 0 {
		return
	}
	sm.ctasRemaining--
	w0 := slot * sm.prog.kernel.WarpsPerCTA
	n := sm.prog.kernel.WarpsPerCTA
	launched := 0
	for i := 0; i < n && w0+i < len(sm.warps); i++ {
		w := &sm.warps[w0+i]
		seed := stats.CombineSeeds(sm.benchSeed, uint64(sm.id)<<32, sm.warpSeq)
		w.reset(sm.prog, slot, sm.warpSeq, seed)
		sm.warpSeq++
		sm.ctaLive[slot]++
		sm.refreshWarp(w)
		launched++
	}
	if launched > 0 {
		sm.emptySlots--
	}
}

// refreshWarp re-derives w's contribution to the scheduler bitsets and
// per-class counters from its current state. It must be called after every
// mutation that can change the warp's state, readiness or next-instruction
// class: CTA launch, issue (advance + set membership), and writeback.
func (sm *SM) refreshWarp(w *Warp) {
	bit := uint64(1) << uint(w.id)
	if sm.activeMask&bit != 0 {
		c := w.cls
		sm.actv[c]--
		if sm.readyCls[c]&bit != 0 {
			sm.rdy[c]--
			sm.readyCls[c] &^= bit
			sm.readyShrd &^= bit
		}
	}
	sm.activeMask &^= bit
	sm.liveMask &^= bit
	switch w.state {
	case WarpActive:
		sm.liveMask |= bit
		sm.activeMask |= bit
		c := w.op.class
		w.cls = c
		sm.actv[c]++
		if w.pending&w.op.hazard == 0 {
			sm.readyCls[c] |= bit
			sm.rdy[c]++
			if w.op.shared {
				sm.readyShrd |= bit
			}
		}
	case WarpPendingMem:
		sm.liveMask |= bit
	}
}

// done reports whether the SM has drained all its work.
func (sm *SM) done() bool {
	return sm.ctasRemaining <= 0 && sm.liveMask == 0
}

// step simulates cycle now and returns the next cycle at which the SM needs
// stepping (calls for cycles a jump already covered return immediately).
// That is now+1, unless the cycle issued nothing and no gating tick moved
// what the issue stage reads (see tickGroup): then the cycles up to the SM's
// horizon repeat it exactly — the same warps ready, the same refusals, the
// same gating inputs — so jump books those cycles in closed form and returns
// the horizon.
func (sm *SM) step(now int64) int64 {
	if now < sm.skipUntil {
		return sm.skipUntil
	}
	sm.st.Cycles++
	sm.memPort.Expire(now)
	sm.writeback(now)
	if len(sm.retireFar) > 0 {
		sm.writebackFar(now)
	}
	sm.replaceCTAs()
	sm.refreshCounters()
	if sm.gatesPol != nil {
		sm.gatesPol.UpdatePriority(&sm.smState)
	}
	issued, stallsMem, stallsGate, refusals := sm.st.IssuedTotal, sm.st.IssueStallsMem, sm.st.IssueStallsGate, sm.memPort.Refusals()
	sm.issue(now)
	moved := false
	if !sm.ungated || !sm.ffEnabled {
		moved = sm.tickGating(now)
	}
	sm.emitProbe(now)
	next := now + 1
	if sm.ffEnabled && !moved && sm.st.IssuedTotal == issued {
		next = sm.jump(now, sm.st.IssueStallsMem-stallsMem, sm.st.IssueStallsGate-stallsGate, sm.memPort.Refusals()-refusals)
	}
	sm.skipUntil = next
	return next
}

// jump accounts the cycles after now, a cycle that issued nothing, up to the
// SM's horizon as repeats of it, and returns the horizon (now+1 when there
// is nothing to skip). Each repeat books now's stall and MSHR-refusal
// deltas. A class whose controller event falls due on the last repeat ticks
// it for real: the event changes state only at the end of that cycle. When
// no such tick moves a controller (see tickGroup), the issue stage sees the
// cycles after it as it saw now, so the jump goes on to the horizon seen
// from there. An SM whose next cycle would still attempt a CTA launch does
// not jump.
func (sm *SM) jump(now int64, dMem, dGate, dRefused uint64) int64 {
	if sm.ctasRemaining > 0 && sm.emptySlots > 0 {
		return now + 1
	}
	h := sm.horizon(now)
	if h <= now+1 || h == math.MaxInt64 {
		return now + 1
	}
	for from := now; ; {
		n := h - from - 1
		sm.st.Cycles += n
		sm.st.ActiveWarpSum += uint64(bits.OnesCount64(sm.activeMask)) * uint64(n)
		sm.st.IssueStallsMem += dMem * uint64(n)
		sm.st.IssueStallsGate += dGate * uint64(n)
		sm.memPort.NoteRefusals(dRefused * uint64(n))
		if sm.gatesPol != nil {
			sm.gatesPol.Advance(n)
		}
		last := h - 1
		for c := from + 1; c < last && sm.probe != nil; c++ {
			sm.emitProbe(c)
		}
		ticked, moved := false, false
		for i := range sm.groups {
			if g := &sm.groups[i]; g.due == last {
				ticked = true
				moved = sm.tickGroup(g, last) || moved
			}
		}
		sm.emitProbe(last)
		if !ticked || moved {
			return h
		}
		next := sm.horizon(last)
		if next <= h || next == math.MaxInt64 {
			return h
		}
		from, h = last, next
	}
}

// horizon returns the first cycle after now that cannot repeat now: the
// cycle after a gating event (tickGating keeps each class's due cycle, the
// cycle whose tick the event or a pipe's draining changes), or the first
// cycle to start differently — at the MSHR's next fill, the next populated
// retire bucket or overflow writeback, a pipe's port freeing, a GATES
// priority swap, or stepLimit.
func (sm *SM) horizon(now int64) int64 {
	h := min(sm.stepLimit, sm.memPort.NextExpiry())
	for i := range sm.groups {
		if d := sm.groups[i].due; d < h-1 {
			h = d + 1
		}
	}
	if h <= now+1 {
		return h
	}
	if sm.retireCount > 0 {
		h = min(h, sm.nextRetireCycle(now+1))
	}
	if len(sm.retireFar) > 0 {
		h = min(h, sm.retirePool[sm.retireFar[0]].at)
	}
	for _, p := range sm.pipes {
		if p.portFreeAt > now {
			h = min(h, p.portFreeAt)
		}
	}
	if sm.gatesPol != nil {
		h = min(h, after(now, sm.gatesPol.NextSwap(&sm.smState)))
	}
	return h
}

// emitProbe reports the per-lane gating states for cycle now.
func (sm *SM) emitProbe(now int64) {
	if sm.probe == nil {
		return
	}
	sm.laneBuf = sm.laneBuf[:0]
	for _, p := range sm.pipes {
		sm.laneBuf = append(sm.laneBuf, LaneState{
			Class:   p.Class(),
			Cluster: p.Cluster(),
			Busy:    p.Busy(now),
			State:   p.Gate().State(),
		})
	}
	sm.probe(sm.id, now, sm.laneBuf)
}

// writeback retires all operations completing at cycle now. Within-bucket
// order is irrelevant: each event only clears its own warp's scoreboard
// bits, and nothing observes the intermediate states. A writeback that
// clears no bit of its warp's next instruction changes neither the warp's
// readiness nor its set, so the warp is not refreshed.
func (sm *SM) writeback(now int64) {
	idx := now & (retireRingSize - 1)
	n := sm.retireHead[idx]
	if n < 0 {
		return
	}
	for n >= 0 {
		ev := &sm.retirePool[n]
		if w := &sm.warps[ev.warp]; ev.gen == w.gen {
			if w.op != nil && ev.dstMask&w.op.hazard != 0 {
				w.clearPending(ev.dstMask)
				sm.refreshWarp(w)
			} else {
				w.pending &^= ev.dstMask
				w.memPending &^= ev.dstMask
			}
		}
		next := ev.next
		ev.next = sm.retireFree
		sm.retireFree = n
		sm.retireCount--
		n = next
	}
	sm.retireHead[idx] = -1
	sm.retireBits[idx>>6] &^= 1 << uint(idx&63)
}

// writebackFar retires the overflow-heap events due at cycle now. The
// horizon steps the SM at the heap's earliest cycle, so none can be past.
func (sm *SM) writebackFar(now int64) {
	for len(sm.retireFar) > 0 {
		n := sm.retireFar[0]
		ev := &sm.retirePool[n]
		if ev.at > now {
			return
		}
		if ev.at < now {
			panic(fmt.Sprintf("sim: SM%d overflow retire at cycle %d missed, clock at %d", sm.id, ev.at, now))
		}
		if w := &sm.warps[ev.warp]; ev.gen == w.gen {
			w.clearPending(ev.dstMask)
			sm.refreshWarp(w)
		}
		ev.next = sm.retireFree
		sm.retireFree = n
		last := len(sm.retireFar) - 1
		sm.retireFar[0] = sm.retireFar[last]
		sm.retireFar = sm.retireFar[:last]
		sm.siftDownFar(0)
	}
}

// scheduleRetire books a future writeback at cycle at (scheduled at cycle
// now): in the ring when it is less than retireRingSize cycles ahead, in the
// overflow heap otherwise. Events at or before now, or before skipUntil,
// would land in a bucket the SM has already passed and wait a full ring
// wrap, so both panic.
func (sm *SM) scheduleRetire(now, at int64, w *Warp, dstMask uint64) {
	if dstMask == 0 {
		return
	}
	delta := at - now
	if delta <= 0 {
		panic(fmt.Sprintf("sim: retire scheduled %d cycles ahead, want at least 1", delta))
	}
	if at < sm.skipUntil {
		panic(fmt.Sprintf("sim: SM%d retire at cycle %d, behind its clock at %d", sm.id, at, sm.skipUntil))
	}
	n := sm.retireFree
	if n >= 0 {
		sm.retireFree = sm.retirePool[n].next
	} else {
		// Pool exhausted: grow it. This stops happening once the pool
		// reaches the SM's maximum in-flight event count (a few hundred,
		// bounded by warps × scoreboard width), after which the steady
		// state is allocation-free.
		sm.retirePool = append(sm.retirePool, retireEvent{})
		n = int32(len(sm.retirePool) - 1)
	}
	ev := &sm.retirePool[n]
	ev.warp, ev.gen, ev.dstMask, ev.at = int32(w.id), w.gen, dstMask, at
	if delta >= retireRingSize {
		sm.retireFar = append(sm.retireFar, n)
		sm.siftUpFar(len(sm.retireFar) - 1)
		return
	}
	idx := at & (retireRingSize - 1)
	ev.next = sm.retireHead[idx]
	sm.retireHead[idx] = n
	sm.retireBits[idx>>6] |= 1 << uint(idx&63)
	sm.retireCount++
}

// siftUpFar restores the overflow heap's order after a push at i.
func (sm *SM) siftUpFar(i int) {
	h := sm.retireFar
	for i > 0 {
		p := (i - 1) / 2
		if sm.retirePool[h[p]].at <= sm.retirePool[h[i]].at {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDownFar restores the overflow heap's order after a pop refilled i.
func (sm *SM) siftDownFar(i int) {
	h := sm.retireFar
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && sm.retirePool[h[r]].at < sm.retirePool[h[c]].at {
			c = r
		}
		if sm.retirePool[h[i]].at <= sm.retirePool[h[c]].at {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// nextRetireCycle returns the cycle of the earliest populated retire bucket
// at or after now. Callers must ensure retireCount > 0; scheduleRetire
// rings only events within [now, now+retireRingSize), so bucket order
// equals cycle order.
func (sm *SM) nextRetireCycle(now int64) int64 {
	start := int(now & (retireRingSize - 1))
	wordIdx := start >> 6
	if m := sm.retireBits[wordIdx] >> uint(start&63); m != 0 {
		return now + int64(bits.TrailingZeros64(m))
	}
	dist := int64(64 - start&63)
	nWords := len(sm.retireBits)
	for k := 1; k <= nWords; k++ {
		if w := sm.retireBits[(wordIdx+k)&(nWords-1)]; w != 0 {
			return now + dist + int64(64*(k-1)) + int64(bits.TrailingZeros64(w))
		}
	}
	panic("sim: retireCount > 0 but no populated retire bucket")
}

// replaceCTAs launches queued CTAs into drained slots.
func (sm *SM) replaceCTAs() {
	if sm.ctasRemaining <= 0 || sm.emptySlots == 0 {
		return
	}
	for slot := range sm.ctaLive {
		if sm.ctaLive[slot] != 0 {
			continue
		}
		sm.launchCTA(slot)
	}
}

// refreshCounters publishes the incrementally maintained per-type counters to
// the scheduler-visible snapshot (the paper's ACTV and RDY registers) and
// samples occupancy statistics. The snapshot's blackout flags change only
// when a controller ticks, so tickGroup keeps them.
func (sm *SM) refreshCounters() {
	sm.smState.ACTV = sm.actv
	sm.smState.RDY = sm.rdy

	active := bits.OnesCount64(sm.activeMask)
	sm.st.ActiveWarpSum += uint64(active)
	if active > sm.st.ActiveWarpMax {
		sm.st.ActiveWarpMax = active
	}
}

// issue runs the SM's scheduler slots for one cycle. Warps are statically
// partitioned between the slots by warp index, as in Fermi. Each slot walks
// its ready warps in the policy's order until one issues.
//
// A class whose pipes refused an issue stays refused for the rest of the
// cycle: its pipes change only when one of its instructions starts, and none
// can once they refused. An MSHR refusal likewise holds for every global
// access while the LDST pipe can still start: only a global access changes
// the MSHR, and a shared one that starts the pipe ends the shortcut (see
// issueMemory). The walk skips the warps these refusals cover and books
// those it passes with the stall tryIssue would record, without the try, so
// every stall counter equals what trying each warp gives.
func (sm *SM) issue(now int64) {
	sm.gateBlocked, sm.memBlocked = 0, false
	o := &sm.order
	for s, pol := range sm.policies {
		if r := &sm.readyCls; (r[isa.INT]|r[isa.FP]|r[isa.SFU]|r[isa.LDST])&sm.slotMask[s] == 0 {
			continue
		}
		pol.Order(o, &sm.readyCls, sm.slotMask[s])
		for b := sm.gateBlocked; b != 0; b &= b - 1 {
			o.Skip(skipGate, sm.readyCls[bits.TrailingZeros8(b)])
		}
		if sm.memBlocked {
			sm.skipGlobal()
		}
		for i := o.Next(); i >= 0; i = o.Next() {
			if sm.tryIssue(now, i) {
				pol.OnIssue(i)
				break
			}
		}
		sm.st.IssueStallsGate += uint64(o.Passed(skipGate))
		sm.st.IssueStallsMem += uint64(o.Passed(skipMem))
	}
}

// The kinds of warps the issue walk skips: those of a class whose pipes
// refused an issue, and the global accesses behind an MSHR refusal.
const (
	skipGate = 0
	skipMem  = 1
)

// skipGlobal makes the issue walk skip the ready global accesses.
func (sm *SM) skipGlobal() {
	sm.order.Skip(skipMem, sm.readyCls[isa.LDST]&^sm.readyShrd)
}

// tryIssue attempts to issue warp slot i's next instruction; it returns false
// on structural or gating hazards, in which case the arbiter tries the next
// warp (the heterogeneity that hides Blackout's latency, §5).
func (sm *SM) tryIssue(now int64, i int) bool {
	w := &sm.warps[i]
	in := w.op
	if in == nil {
		return false
	}
	switch in.class {
	case isa.INT:
		return sm.issueALU(now, w, in, sm.intPipes)
	case isa.FP:
		return sm.issueALU(now, w, in, sm.fpPipes)
	case isa.SFU:
		return sm.issueSingle(now, w, in, sm.sfuPipe)
	case isa.LDST:
		return sm.issueMemory(now, w, in)
	}
	panic(fmt.Sprintf("sim: unknown class %v", in.class))
}

// issueALU places an INT/FP instruction on one of the class's clusters.
// Cluster preference is static (lowest index first): consolidating work onto
// one cluster instead of balancing it coalesces the other cluster's idle
// cycles into long gateable runs — the asymmetry Coordinated Blackout is
// built around (one cluster powered and serving work, the peer sleeping).
// When every cluster is gated or port-busy, a wakeup demand is raised on the
// most wakeable gated cluster.
func (sm *SM) issueALU(now int64, w *Warp, in *uop, pipes []*Pipe) bool {
	for _, p := range pipes {
		if p.CanStart(now) {
			sm.commitIssue(now, w, in, p, in.ii, in.latency)
			return true
		}
	}
	sm.noteGateStall(in.class)
	return false
}

// issueSingle places an instruction on a single-cluster pipe (SFU).
func (sm *SM) issueSingle(now int64, w *Warp, in *uop, p *Pipe) bool {
	if p.CanStart(now) {
		sm.commitIssue(now, w, in, p, in.ii, in.latency)
		return true
	}
	sm.noteGateStall(in.class)
	return false
}

// issueMemory handles LDST instructions: coalescing, MSHR admission, and
// completion scheduling through the memory subsystem.
func (sm *SM) issueMemory(now int64, w *Warp, in *uop) bool {
	p := sm.ldstPipe
	if !p.CanStart(now) {
		sm.noteGateStall(isa.LDST)
		return false
	}
	if in.shared {
		// The pipe is now held, so an MSHR refusal no longer implies that a
		// global access would reach admission this cycle.
		sm.memBlocked = false
		complete := sm.memPort.SharedAccess(now)
		sm.commitIssue(now, w, in, p, in.ii, in.latency)
		sm.scheduleRetire(now, complete, w, in.dst)
		return true
	}
	// Global/local access: coalesce (cached across structural retries) then
	// check MSHR admission.
	if !w.memLinesValid {
		base := w.globalSeq*97 + w.memCounter
		w.memLines = mem.AppendTransactions(w.memLines[:0],
			in.pattern, in.region, base, sm.prog.kernel.WorkingSetLines, &w.rng)
		w.memLinesValid = true
		w.memRefused = 0
	}
	lines := w.memLines
	gen := sm.memPort.MSHRGen() + 1
	refused := w.memRefused == gen
	if refused {
		sm.memPort.NoteRefused()
	} else if refused = !sm.memPort.CanIssueGlobal(lines); refused {
		w.memRefused = gen
	}
	if refused {
		sm.st.IssueStallsMem++
		sm.memBlocked = true
		sm.skipGlobal()
		return false
	}
	// The pipe occupancy and issue latency depend only on the transaction
	// fan-out, never on where the lines hit.
	ii := len(lines)
	if ii < 1 {
		ii = 1
	}
	latency := in.latency + ii - 1
	res := sm.memPort.GlobalAccess(now, lines)
	w.memCounter++
	w.memLinesValid = false
	sm.commitIssue(now, w, in, p, ii, latency)
	sm.scheduleRetire(now, res.CompleteAt, w, in.dst)
	return true
}

// commitIssue performs the bookkeeping common to every successful issue.
// Non-memory register results retire after the op latency; memory loads are
// scheduled separately by the caller (their latency comes from the memory
// model), so here only ALU/SFU destinations are booked.
func (sm *SM) commitIssue(now int64, w *Warp, in *uop, p *Pipe, ii, latency int) {
	finished := w.advance(in)
	if in.dst != 0 && in.class != isa.LDST {
		sm.scheduleRetire(now, now+int64(latency), w, in.dst)
	}
	if !p.Busy(now) {
		// The owed ticks before now saw the pipe idle. The group's other
		// pipes and adaptive window owe theirs under inputs that hold until
		// its next tick, so they settle then.
		p.settle(now)
	}
	p.Start(now, ii, latency)
	if !sm.ungated {
		// The busy ticks up to the drain reset the idle count, so the
		// pipe's next event moves past the drain; the group's other dues
		// hold.
		old := p.due
		p.due = after(p.drainAt-1, p.gate.NextEventAfterBusy())
		if g := &sm.groups[p.class]; p.due < g.due {
			g.due = p.due
		} else if old == g.due && p.due != old {
			g.refreshDue()
		}
	}
	if sm.tracer != nil {
		sm.tracer(sm.id, now, w.id, in.class, p.Cluster())
	}
	sm.st.IssuedByClass[in.class]++
	sm.st.IssuedTotal++
	if finished {
		sm.refreshWarp(w)
		sm.ctaLive[w.ctaSlot]--
		if sm.ctaLive[w.ctaSlot] < 0 {
			panic("sim: CTA live count underflow")
		}
		if sm.ctaLive[w.ctaSlot] == 0 {
			sm.st.CTAsCompleted++
			sm.emptySlots++
			if sm.ctasRemaining <= 0 && sm.liveMask == 0 {
				// The transition point GPU.Run's live-SM count hinges on:
				// the last warp of the last CTA just finished.
				sm.drained = true
			}
		}
	} else {
		w.refreshState()
		sm.refreshWarp(w)
	}
}

// noteGateStall records that a ready instruction of class c could not issue
// because its pipes were gated or port-busy, and marks the class refused for
// the rest of the cycle (statistics only; wakeup demand itself
// is driven by the per-class ready-detect logic in signalReadyDemand,
// matching the paper's Figure 7 where the power-gating controller watches
// the ready counters, not the issue arbiter).
func (sm *SM) noteGateStall(c isa.Class) {
	sm.st.IssueStallsGate++
	sm.gateBlocked |= 1 << c
	sm.order.Skip(skipGate, sm.readyCls[c])
}

// wantsMore reports whether the ready work of g's class wants more of its
// pipes powered than the serving ones staged in g: the ready count, bounded
// by the SM's issue width and the class's pipe count, exceeds them. Without
// this bound the ready-detect logic thrashes the sleep switch (a gated
// cluster would wake on every cycle any warp of its type is ready, even with
// a powered peer serving it) and every technique's savings collapse below
// zero.
func (sm *SM) wantsMore(g *gateGroup) bool {
	return min(sm.rdy[g.class], g.width) > g.serving
}

// signalReadyDemand implements the ready-instruction detect logic of
// conventional power gating (Hu et al., and the paper's Fig. 7 PG_logic):
// whenever the powered pipes of a class cannot serve its ready work
// (wantsMore), a wakeup demand is raised on the most wakeable gated pipe
// (compensated first, then — meaningful only under conventional rules —
// uncompensated). Exactly one pipe per class receives the demand so wakeup
// statistics are not double counted. Because demand is derived from
// readiness rather than from arbiter walk order, a unit whose type is
// currently de-prioritized by GATES starts waking while the other type's
// phase is still draining, hiding the wakeup delay.
func (sm *SM) signalReadyDemand(g *gateGroup) {
	var fallback *Pipe
	for _, p := range g.pipes {
		switch p.gate.State() {
		case gating.StCompensated:
			p.gate.RequestIssue()
			return
		case gating.StUncompensated:
			if fallback == nil {
				fallback = p
			}
		}
	}
	if fallback != nil {
		fallback.gate.RequestIssue()
	}
}

// tickGating advances the gating controllers of every class whose inputs
// changed or whose event is due, settling first the cycles the class owes
// (see gateGroup), and reports whether the next cycle's issue stage sees a
// controller change (see tickGroup); on the stepped reference loop every
// class ticks every cycle. The live rdy counters already reflect this cycle's
// issues (refreshWarp runs at commit), so a warp that just issued is no
// longer waiting and must not wake a gated unit.
func (sm *SM) tickGating(now int64) (moved bool) {
	for i := range sm.groups {
		g := &sm.groups[i]
		// Every tick leaves g.demand equal to wantsMore, which moves only
		// with rdy.
		if sm.ffEnabled && now < g.due && sm.wantsMore(g) == g.demand &&
			(!g.coordinated || (sm.smState.ACTV[i] > 0) == g.actv) {
			continue
		}
		moved = sm.tickGroup(g, now) || moved
	}
	return moved
}

// tickGroup ticks one class's controllers for cycle now, stages the inputs
// of the cycles after it, and computes the due cycles: each pipe's
// controller's next event (for a busy pipe, the one its idle cycles after
// the drain reach) and the adaptive epoch end. It reports whether a
// controller changed what the next cycle's issue stage reads of it: whether
// its pipe accepts work, which matters while a warp of the class is ready
// to try it, and whether the class is all in blackout, which the GATES
// priority switch reads. Other state changes only move the inputs the
// class's own next ticks see, and those are staged here.
func (sm *SM) tickGroup(g *gateGroup, now int64) bool {
	// A pipe whose event is not due and whose inputs stay put would repeat
	// its owed cycles at now, so it is left owing (Pipe.settle). Every pipe
	// ticks when the inputs are restaged first, when the adaptive window
	// may move after this tick (every due must then be recomputed, from
	// counts settled under the old window), and on the stepped oracle.
	all := !sm.ffEnabled || now >= g.epochEnd
	// The coordinator sees the pre-issue ACTV snapshot (the register that
	// was latched when the cycle began), not the live post-issue counters;
	// nothing else stages from it.
	if actv := sm.smState.ACTV[g.class] > 0; sm.wantsMore(g) != g.demand || (g.coordinated && actv != g.actv) {
		g.settlePipes(now)
		g.actv = actv
		sm.stageInputs(g)
		all = true
	}
	opened, blackout, restage := false, false, false
	for _, p := range g.pipes {
		if !all && p.due > now {
			continue
		}
		p.settle(now)
		st, black := p.gate.State(), p.gate.InBlackout()
		p.gate.TickKeep(p.Busy(now))
		p.settled = now + 1
		if next := p.gate.State(); next != st {
			opened = opened || st == gating.StActive || next == gating.StActive
			blackout = blackout || p.gate.InBlackout() != black
			restage = restage || !g.inputsHold(st, next)
		}
	}
	moved := opened && sm.readyCls[g.class] != 0
	if ab := &sm.smState.AllBlackout[g.class]; blackout && g.coord != nil && g.coord.AllInBlackout() != *ab {
		*ab = !*ab
		moved = moved || sm.gatesPol != nil
	}
	g.epochEnd = math.MaxInt64
	if g.adapt != nil {
		// Feed the cycle's critical-wakeup delta to the adaptive window,
		// after the cycles it owes.
		g.adapt.AdvanceIdle(now - g.settled)
		cur := sumCriticals(g.pipes)
		g.adapt.Tick(int(cur - g.prevCrit))
		g.prevCrit = cur
		g.epochEnd = after(now, g.adapt.NextEpochEnd())
	}
	g.settled = now + 1
	if restage {
		// The owing pipes repeat now under the inputs they had.
		g.settlePipes(now + 1)
		sm.stageInputs(g)
		all = true
	}
	g.due = g.epochEnd
	for _, p := range g.pipes {
		if all || p.settled == now+1 {
			// A busy pipe's controller is active with its idle count at
			// zero, as it will be when the drain starts the count.
			p.due = after(max(now, p.drainAt-1), p.gate.NextEvent(false))
		}
		g.due = min(g.due, p.due)
	}
	return moved
}

// inputsHold reports whether a controller of g moving from state from to
// state to leaves the inputs staged for g as stageInputs would stage them.
// A pipe that finishes waking was serving already, was no demand target
// and, uncoordinated, had no directives; one that passes break-even stays
// gated, so only a demand target can move.
func (g *gateGroup) inputsHold(from, to gating.State) bool {
	switch {
	case from == gating.StWakeup && to == gating.StActive:
		return !g.coordinated
	case from == gating.StUncompensated && to == gating.StCompensated:
		return !g.demand
	}
	return false
}

// stageInputs installs the demand and directives g's controllers tick with
// while g.demand, g.actv and their states hold.
func (sm *SM) stageInputs(g *gateGroup) {
	g.serving = 0
	for _, p := range g.pipes {
		p.gate.ClearInputs()
		if st := p.gate.State(); st == gating.StActive || st == gating.StWakeup {
			g.serving++
		}
	}
	if g.demand = sm.wantsMore(g); g.demand {
		sm.signalReadyDemand(g)
	}
	if g.coordinated {
		actv := 0
		if g.actv {
			actv = 1
		}
		g.coord.PreTick(actv)
	}
}

// sumCriticals totals critical wakeups across a class's pipes.
func sumCriticals(pipes []*Pipe) uint64 {
	var n uint64
	for _, p := range pipes {
		n += p.Gate().CriticalWakeups()
	}
	return n
}

// settleGating brings every controller's counters up to the SM's clock.
func (sm *SM) settleGating() {
	for i := range sm.groups {
		sm.groups[i].settle(sm.skipUntil)
	}
}

// finish settles the controllers and closes open idle runs so histograms
// account for every cycle.
func (sm *SM) finish() {
	sm.settleGating()
	for _, p := range sm.pipes {
		p.Gate().Finish()
	}
}

// Stats returns the SM's counters.
func (sm *SM) Stats() SMStats { return sm.st }
