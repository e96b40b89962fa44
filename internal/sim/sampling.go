package sim

import (
	"math"
	"sort"

	"warpedgates/internal/isa"
)

// Interval-sampled simulation (config.SampleDetailCycles / SamplePeriod).
//
// The sampler never jumps the clock and never synthesizes architectural
// state. The simulator steps detailed windows of SampleDetailCycles
// device cycles; at each window boundary the sampler measures the work the
// window performed (issued instructions, per-domain gating counters, memory
// traffic, elapsed cycles) and then *removes* future work worth
// (SamplePeriod-SampleDetailCycles)/SampleDetailCycles times the window's
// issue count, by dequeueing whole unlaunched CTAs from the SM's launch
// queue (budget that does not cover a whole CTA carries to the next
// boundary). The removed work's contribution to the final report is
// estimated in closed form at the window's measured rates. Removing only
// queued CTAs is what keeps the estimate honest: the resident machine
// behaves exactly like a full run of a kernel with fewer CTA waves —
// occupancy, wave-transition transients and the final drain are all
// simulated detailed — and the skipped waves are statistically identical
// (same body, same geometry, different seeds) to the waves the windows
// measure. Every engine invariant — scoreboard, retire ring, gating
// controller state machines, the stall jump — holds unchanged.
//
// The estimate's rate basis is the *entire* post-warm-up detailed run, not
// the windows in which splices happened to land: boundary() accumulates
// every post-warm-up window delta into a cumulative basis, and apply()
// scales that basis by skipped/measured instructions. Splices necessarily
// cluster early (the queue drains while budget accrues), and the early
// windows run on colder caches than the mix of phases the skipped waves
// would really have executed across; normalizing over the whole run folds
// the warm steady state and the drain into the per-instruction rates.
//
// Two totals are conserved exactly rather than estimated: IssuedTotal (the
// extrapolation weight is skipped/issued, so the estimated instructions
// equal the spliced instructions) and CTAsCompleted (spliced-out CTAs are
// counted directly, one each). Idle
// histograms are *not* extrapolated: a sampled report's IdlePeriods cover
// the detailed windows only (the distribution shape is preserved, the
// counts are smaller). Sampled reports set Report.Sampled and carry a
// heuristic per-run error estimate (window-rate dispersion scaled by the
// estimated fraction); the hard validation is the corpus test
// TestSampledModeCorpusErrorBound against full runs.

// sampleCounters is the flat snapshot of every extrapolated report counter.
type sampleCounters struct {
	deviceCycles float64 // GPU.cycle
	smCycles     float64 // sum over SMs of SMStats.Cycles
	warpSum      float64 // sum over SMs of SMStats.ActiveWarpSum

	issuedByClass [isa.NumClasses]float64
	issuedTotal   float64
	stallsMem     float64
	stallsGate    float64

	domains [isa.NumClasses]sampleDomain
	l1Acc   float64
	l1Miss  float64
	l2      [4]float64
}

// sampleDomain mirrors DomainStats' scalar counters.
type sampleDomain struct {
	busy, idle, powered, gated, uncomp, comp   float64
	events, wakeups, neg, crit, denied, issued float64
}

// sampler drives interval sampling for one serial run.
type sampler struct {
	g      *GPU
	detail int64 // cycles per detailed window
	ratio  float64
	// warmup is the device cycle before which no splicing happens (one full
	// period): the coldest windows — empty caches, launch transient — are
	// unrepresentative of the work a splice stands in for, and budget earned
	// during warm-up is discarded rather than carried into a burst.
	warmup int64
	// next is the device cycle of the next window boundary.
	next int64
	prev sampleCounters
	// prevIssuedSM holds the previous boundary's per-SM issue counts, the
	// basis for per-SM splice budgets; carrySM accumulates budget too small
	// to cover a whole CTA until it can (capped in splice).
	prevIssuedSM []uint64
	carrySM      []float64

	// cum accumulates every post-warm-up window delta — the rate basis the
	// estimate is scaled from. est is the scaled copy computed by apply().
	cum           sampleCounters
	est           sampleCounters
	skippedInstrs uint64
	skippedCTAs   int

	// Issue-weighted moments of the window cycles-per-instruction rates over
	// all post-warm-up windows, the basis of the error estimate: rateW is the
	// total weight (instructions measured), rateM1/rateM2 the weighted
	// first/second moments, rateN the number of windows. windows keeps the
	// raw (rate, weight) pairs for the weighted-median cycle estimate.
	rateW, rateM1, rateM2 float64
	rateN                 int
	windows               []windowRate
}

// windowRate is one post-warm-up window's cycles-per-instruction rate and
// its weight (instructions issued in the window).
type windowRate struct {
	rate, weight float64
}

// newSampler returns the run's sampler, or nil when sampling is off.
func newSampler(g *GPU) *sampler {
	if !g.cfg.Sampling() {
		return nil
	}
	s := &sampler{
		g:            g,
		detail:       int64(g.cfg.SampleDetailCycles),
		ratio:        float64(g.cfg.SamplePeriod-g.cfg.SampleDetailCycles) / float64(g.cfg.SampleDetailCycles),
		prevIssuedSM: make([]uint64, len(g.sms)),
		carrySM:      make([]float64, len(g.sms)),
		warmup:       3 * int64(g.cfg.SamplePeriod),
	}
	s.setNext(s.detail)
	s.snapshot(&s.prev)
	return s
}

// setNext moves the next window boundary to cycle at and caps every SM's
// jumps there, so each window ends with every SM's counters accounted up to
// exactly its boundary, as stepping every cycle would leave them.
func (s *sampler) setNext(at int64) {
	s.next = at
	for _, sm := range s.g.sms {
		sm.stepLimit = at
		if mc := int64(s.g.cfg.MaxCycles); mc > 0 && mc < at {
			sm.stepLimit = mc
		}
	}
}

// snapshot fills dst with the device's current cumulative counters.
func (s *sampler) snapshot(dst *sampleCounters) {
	*dst = sampleCounters{deviceCycles: float64(s.g.cycle)}
	for _, sm := range s.g.sms {
		sm.settleGating()
		st := &sm.st
		dst.smCycles += float64(st.Cycles)
		dst.warpSum += float64(st.ActiveWarpSum)
		for c := 0; c < int(isa.NumClasses); c++ {
			dst.issuedByClass[c] += float64(st.IssuedByClass[c])
		}
		dst.issuedTotal += float64(st.IssuedTotal)
		dst.stallsMem += float64(st.IssueStallsMem)
		dst.stallsGate += float64(st.IssueStallsGate)
		for _, p := range sm.pipes {
			gs := p.Gate().Stats()
			d := &dst.domains[p.Class()]
			d.busy += float64(gs.BusyCycles)
			d.idle += float64(gs.IdleCycles)
			d.powered += float64(gs.PoweredCycles)
			d.gated += float64(gs.GatedCycles)
			d.uncomp += float64(gs.UncompCycles)
			d.comp += float64(gs.CompCycles)
			d.events += float64(gs.GatingEvents)
			d.wakeups += float64(gs.Wakeups)
			d.neg += float64(gs.NegativeEvents)
			d.crit += float64(gs.CriticalWakeups)
			d.denied += float64(gs.DeniedWakeups)
			d.issued += float64(p.Issued())
		}
		a, m := sm.memPort.L1().Stats()
		dst.l1Acc += float64(a)
		dst.l1Miss += float64(m)
	}
	a, m, d, q := s.g.gmem.Stats()
	dst.l2 = [4]float64{float64(a), float64(m), float64(d), float64(q)}
}

// boundary closes the detailed window ending at the current device cycle:
// it measures the window's deltas, splices out the proportional amount of
// future work, and folds the spliced work's estimated contribution into the
// running totals. Called from the serial loop when the clock reaches s.next
// (no SM jumps past it).
func (s *sampler) boundary() {
	var cur sampleCounters
	s.snapshot(&cur)
	issuedDelta := cur.issuedTotal - s.prev.issuedTotal
	if s.g.cycle >= s.warmup {
		if issuedDelta > 0 {
			// Every post-warm-up window that issued feeds the rate basis,
			// splice or not. Issue-free windows are excluded: they are idle
			// regions where every SM waited on memory, and their cycles are a
			// fixed structural cost of the resident machine, not per-wave
			// work a skipped CTA would have multiplied.
			addScaled(&s.cum, &cur, &s.prev, 1)
			rate := (cur.deviceCycles - s.prev.deviceCycles) / issuedDelta
			s.rateW += issuedDelta
			s.rateM1 += issuedDelta * rate
			s.rateM2 += issuedDelta * rate * rate
			s.rateN++
			s.windows = append(s.windows, windowRate{rate: rate, weight: issuedDelta})
			for i, sm := range s.g.sms {
				issued := sm.st.IssuedTotal
				budget := float64(issued-s.prevIssuedSM[i])*s.ratio + s.carrySM[i]
				taken := s.splice(sm, budget)
				s.carrySM[i] = budget - float64(taken)
				s.skippedInstrs += taken
				s.prevIssuedSM[i] = issued
			}
		}
	} else {
		// Warm-up: advance the baselines without earning splice budget.
		for i, sm := range s.g.sms {
			s.prevIssuedSM[i] = sm.st.IssuedTotal
		}
	}
	s.prev = cur
	s.setNext(s.g.cycle + s.detail)
}

// splice dequeues up to budget instructions' worth of whole unlaunched CTAs
// from one SM and returns the instructions actually removed. The resident
// wave is never touched, so draining the queue early just moves the (fully
// detailed) final drain forward — exactly a real run of a smaller kernel.
// Splicing requires every CTA slot to hold a full
// warp complement (otherwise per-CTA work varies by slot and the accounting
// would drift) and a plain loop-body kernel (microkernels with PerWarpSlice
// have one instruction per warp and nothing representative to skip).
func (s *sampler) splice(sm *SM, budget float64) uint64 {
	k := sm.kernel
	conc := len(sm.ctaLive)
	if k.PerWarpSlice || len(sm.warps) != conc*k.WarpsPerCTA {
		return 0
	}
	// At most one CTA per boundary: spreading the splices across the run
	// keeps the measurement windows representative (a burst would drain the
	// queue while the caches are still at their coldest and leave the rest
	// of the run with nothing to pace against).
	perCTA := uint64(len(k.Body)) * uint64(k.Iterations) * uint64(k.WarpsPerCTA)
	if budget >= float64(perCTA) && sm.ctasRemaining > 0 {
		sm.ctasRemaining--
		s.skippedCTAs++
		return perCTA
	}
	return 0
}

// addScaled folds (cur-prev)*w into est, counter by counter.
func addScaled(est, cur, prev *sampleCounters, w float64) {
	est.deviceCycles += (cur.deviceCycles - prev.deviceCycles) * w
	est.smCycles += (cur.smCycles - prev.smCycles) * w
	est.warpSum += (cur.warpSum - prev.warpSum) * w
	for c := 0; c < int(isa.NumClasses); c++ {
		est.issuedByClass[c] += (cur.issuedByClass[c] - prev.issuedByClass[c]) * w
		ec, cc, pc := &est.domains[c], &cur.domains[c], &prev.domains[c]
		ec.busy += (cc.busy - pc.busy) * w
		ec.idle += (cc.idle - pc.idle) * w
		ec.powered += (cc.powered - pc.powered) * w
		ec.gated += (cc.gated - pc.gated) * w
		ec.uncomp += (cc.uncomp - pc.uncomp) * w
		ec.comp += (cc.comp - pc.comp) * w
		ec.events += (cc.events - pc.events) * w
		ec.wakeups += (cc.wakeups - pc.wakeups) * w
		ec.neg += (cc.neg - pc.neg) * w
		ec.crit += (cc.crit - pc.crit) * w
		ec.denied += (cc.denied - pc.denied) * w
		ec.issued += (cc.issued - pc.issued) * w
	}
	est.issuedTotal += (cur.issuedTotal - prev.issuedTotal) * w
	est.stallsMem += (cur.stallsMem - prev.stallsMem) * w
	est.stallsGate += (cur.stallsGate - prev.stallsGate) * w
	est.l1Acc += (cur.l1Acc - prev.l1Acc) * w
	est.l1Miss += (cur.l1Miss - prev.l1Miss) * w
	for i := range est.l2 {
		est.l2[i] += (cur.l2[i] - prev.l2[i]) * w
	}
}

// apply folds the scaled estimate into the assembled report and stamps the
// sampling metadata. Called once, after finish() and report().
func (s *sampler) apply(r *Report) {
	r.Sampled = true
	r.SampledDetailCycles = s.g.cycle
	r.SampledSkippedInstrs = s.skippedInstrs
	r.SampledSkippedCTAs = s.skippedCTAs
	if s.skippedInstrs > 0 && s.cum.issuedTotal > 0 {
		// Scale the whole-run basis so the estimated instruction count equals
		// the spliced instruction count exactly.
		var zero sampleCounters
		addScaled(&s.est, &s.cum, &zero, float64(s.skippedInstrs)/s.cum.issuedTotal)
	}
	r.SampleErrorEst = s.errorEstimate()

	r.Cycles += round64(s.est.deviceCycles)
	r.CTAsCompleted += s.skippedCTAs
	for c := 0; c < int(isa.NumClasses); c++ {
		r.IssuedByClass[c] += roundU64(s.est.issuedByClass[c])
		d, e := &r.Domains[c], &s.est.domains[c]
		d.BusyCycles += roundU64(e.busy)
		d.IdleCycles += roundU64(e.idle)
		d.PoweredCycles += roundU64(e.powered)
		d.GatedCycles += roundU64(e.gated)
		d.UncompCycles += roundU64(e.uncomp)
		d.CompCycles += roundU64(e.comp)
		d.GatingEvents += roundU64(e.events)
		d.Wakeups += roundU64(e.wakeups)
		d.NegativeEvents += roundU64(e.neg)
		d.CriticalWakeups += roundU64(e.crit)
		d.DeniedWakeups += roundU64(e.denied)
		d.IssuedInstrs += roundU64(e.issued)
	}
	r.IssuedTotal += roundU64(s.est.issuedTotal)
	r.IssueStallsMem += roundU64(s.est.stallsMem)
	r.IssueStallsGate += roundU64(s.est.stallsGate)
	r.L2Stats[0] += roundU64(s.est.l2[0])
	r.L2Stats[1] += roundU64(s.est.l2[1])
	r.L2Stats[2] += roundU64(s.est.l2[2])
	r.L2Stats[3] += roundU64(s.est.l2[3])

	// Ratios are recomputed over detailed + estimated sums.
	var fin sampleCounters
	s.snapshot(&fin)
	if t := fin.smCycles + s.est.smCycles; t > 0 {
		r.ActiveWarpAvg = (fin.warpSum + s.est.warpSum) / t
	}
	if t := fin.l1Acc + s.est.l1Acc; t > 0 {
		r.L1MissRate = (fin.l1Miss + s.est.l1Miss) / t
	}
}

// errorEstimate is the report's heuristic relative error estimate for
// Cycles: the issue-weighted coefficient of variation of the window
// cycles-per-instruction rates, shrunk by the number of independent windows
// the estimate averages over (the estimate is their weighted mean scaled to
// the skipped instruction count, so uncorrelated window noise cancels as
// 1/sqrt(n); the factor 2 approximates a 95% interval), scaled by the
// fraction of the final cycle count that is estimate rather than
// measurement. Heuristic, not a guarantee — the hard ceiling is pinned by
// the corpus test against full runs.
func (s *sampler) errorEstimate() float64 {
	if s.skippedInstrs == 0 || s.rateN == 0 || s.rateW <= 0 || s.rateM1 <= 0 {
		return 0
	}
	mean := s.rateM1 / s.rateW
	variance := s.rateM2/s.rateW - mean*mean
	if variance < 0 {
		variance = 0
	}
	cv := math.Sqrt(variance) / mean
	total := s.est.deviceCycles + float64(s.g.cycle)
	if total <= 0 {
		return 0
	}
	return 2 * cv / math.Sqrt(float64(s.rateN)) * (s.est.deviceCycles / total)
}

// medianRate returns the issue-weighted median of the post-warm-up window
// cycles-per-instruction rates, or 0 when no window issued.
func (s *sampler) medianRate() float64 {
	if len(s.windows) == 0 || s.rateW <= 0 {
		return 0
	}
	w := append([]windowRate(nil), s.windows...)
	sort.Slice(w, func(i, j int) bool { return w[i].rate < w[j].rate })
	half := s.rateW / 2
	var cum float64
	for _, v := range w {
		cum += v.weight
		if cum >= half {
			return v.rate
		}
	}
	return w[len(w)-1].rate
}

func round64(v float64) int64   { return int64(math.Round(v)) }
func roundU64(v float64) uint64 { return uint64(math.Round(math.Max(v, 0))) }
