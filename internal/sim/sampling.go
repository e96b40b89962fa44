package sim

import "math"

// Interval-sampled simulation (config.SampleDetailCycles / SamplePeriod).
//
// The sampler never jumps the clock and never synthesizes architectural
// state. The simulator steps detailed windows of SampleDetailCycles device
// cycles. At each boundary after a warm-up of three periods, every SM earns
// a splice budget of (SamplePeriod-SampleDetailCycles)/SampleDetailCycles
// times the instructions it issued in the window, and spends it by
// dequeueing at most one whole unlaunched CTA from its launch queue (budget
// that does not cover a CTA carries over). Removing only queued CTAs keeps
// the estimate honest: the resident machine behaves exactly like a full run
// of a kernel with fewer CTA waves — occupancy, wave transitions and the
// final drain are all simulated detailed — and the skipped waves are
// statistically identical (same body and geometry, other seeds) to the
// measured ones. Every engine invariant holds unchanged.
//
// The removed work's contribution is estimated from the *entire*
// post-warm-up detailed run, not from the windows the splices landed in:
// boundary() accumulates every post-warm-up window that issued into a
// cumulative counter vector, and apply() scales it by skipped over measured
// instructions. Splices cluster early, on cold caches; the whole-run basis
// folds the warm steady state and the drain into the rates.
//
// IssuedTotal and CTAsCompleted are conserved exactly (the scale makes the
// estimated instructions equal the spliced ones; spliced CTAs are counted
// one each). Idle histograms are not extrapolated: a sampled report's
// IdlePeriods cover the detailed run only. Sampled reports set
// Report.Sampled and carry a heuristic error estimate (errorEstimate); the
// hard validation is TestSampledModeCorpusErrorBound against full runs.

// Slots of the sampler's counter vector: the device cycle, then every
// counter updateCounters visits, in its order.
const (
	vCycles   = iota // GPU.cycle
	vSMCycles        // ratioSums.smCycles
	vWarpSum         // ratioSums.warpSum
	vL1Acc           // ratioSums.l1Acc
	vL1Miss          // ratioSums.l1Miss
	vIssued          // Report.IssuedTotal
)

// sampler drives interval sampling for one serial run.
type sampler struct {
	g      *GPU
	detail int64 // cycles per detailed window
	ratio  float64
	// warmup is the device cycle before which no splicing happens (three
	// periods): the coldest windows — empty caches, launch transient — are
	// unrepresentative of the work a splice stands in for, and budget earned
	// during warm-up is discarded rather than carried into a burst.
	warmup int64
	// next is the device cycle of the next window boundary.
	next int64
	// prev and cur are the counter vectors at the previous and the current
	// boundary (see snapshot).
	prev, cur []float64
	// prevIssuedSM holds the previous boundary's per-SM issue counts, the
	// basis for per-SM splice budgets; carrySM carries budget not yet spent
	// on a whole CTA to the next boundary.
	prevIssuedSM []uint64
	carrySM      []float64

	// cum accumulates every post-warm-up window delta — the rate basis
	// apply scales the estimate from.
	cum           []float64
	skippedInstrs uint64
	skippedCTAs   int

	// Issue-weighted moments of the window cycles-per-instruction rates over
	// all post-warm-up windows, the basis of the error estimate: rateW is the
	// total weight (instructions measured), rateM1/rateM2 the weighted
	// first/second moments, rateN the number of windows.
	rateW, rateM1, rateM2 float64
	rateN                 int
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
	s.prev = s.snapshot(nil)
	s.cum = make([]float64, len(s.prev))
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

// snapshot returns the device's current cumulative counters as a vector,
// reusing dst's storage.
func (s *sampler) snapshot(dst []float64) []float64 {
	var r Report
	for _, sm := range s.g.sms {
		sm.settleGating()
	}
	t := s.g.collect(&r)
	dst = append(dst[:0], float64(s.g.cycle))
	updateCounters(&r, &t, func(v uint64) uint64 {
		dst = append(dst, float64(v))
		return v
	})
	return dst
}

// boundary closes the detailed window ending at the current device cycle:
// it measures the window's deltas, splices out the proportional amount of
// future work, and folds the spliced work's estimated contribution into the
// running totals. Called from the serial loop when the clock reaches s.next
// (no SM jumps past it).
func (s *sampler) boundary() {
	s.cur = s.snapshot(s.cur)
	cur := s.cur
	issuedDelta := cur[vIssued] - s.prev[vIssued]
	if s.g.cycle >= s.warmup {
		if issuedDelta > 0 {
			// Every post-warm-up window that issued feeds the rate basis,
			// splice or not. Issue-free windows are excluded: they are idle
			// regions where every SM waited on memory, and their cycles are a
			// fixed structural cost of the resident machine, not per-wave
			// work a skipped CTA would have multiplied.
			for i := range s.cum {
				s.cum[i] += cur[i] - s.prev[i]
			}
			rate := (cur[vCycles] - s.prev[vCycles]) / issuedDelta
			s.rateW += issuedDelta
			s.rateM1 += issuedDelta * rate
			s.rateM2 += issuedDelta * rate * rate
			s.rateN++
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
	s.prev, s.cur = cur, s.prev
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
	k := sm.prog.kernel
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

// apply folds the scaled estimate into r, which report has assembled from
// the detailed run, and stamps the sampling metadata. It returns the
// unrounded estimate of the device cycle and of the ratio sums, which the
// report's ratios add to the detailed ones.
func (s *sampler) apply(r *Report) [vIssued]float64 {
	r.Sampled = true
	r.SampledDetailCycles = s.g.cycle
	r.SampledSkippedInstrs = s.skippedInstrs
	r.SampledSkippedCTAs = s.skippedCTAs
	est := make([]float64, len(s.cum))
	if s.skippedInstrs > 0 && s.cum[vIssued] > 0 {
		// Scale the whole-run basis so the estimated instruction count equals
		// the spliced instruction count exactly.
		w := float64(s.skippedInstrs) / s.cum[vIssued]
		for i, c := range s.cum {
			est[i] = c * w
		}
	}
	r.SampleErrorEst = s.errorEstimate(est[vCycles])
	// Round the estimate into the counters. The ratio sums take theirs
	// unrounded, so t only absorbs its share.
	r.Cycles += round64(est[vCycles])
	r.CTAsCompleted += s.skippedCTAs
	var t ratioSums
	i := vCycles
	updateCounters(r, &t, func(v uint64) uint64 {
		i++
		return v + roundU64(est[i])
	})
	return [vIssued]float64(est)
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
func (s *sampler) errorEstimate(estCycles float64) float64 {
	if s.skippedInstrs == 0 || s.rateN == 0 || s.rateW <= 0 || s.rateM1 <= 0 {
		return 0
	}
	mean := s.rateM1 / s.rateW
	cv := math.Sqrt(max(0, s.rateM2/s.rateW-mean*mean)) / mean
	total := estCycles + float64(s.g.cycle)
	if total <= 0 {
		return 0
	}
	return 2 * cv / math.Sqrt(float64(s.rateN)) * (estCycles / total)
}

func round64(v float64) int64   { return int64(math.Round(v)) }
func roundU64(v float64) uint64 { return uint64(math.Round(math.Max(v, 0))) }
