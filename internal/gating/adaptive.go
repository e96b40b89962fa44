package gating

import (
	"fmt"

	"warpedgates/internal/config"
)

// AdaptiveIdleDetect implements the paper's §5.1 mechanism: execution time is
// divided into epochs; a counter tracks critical wakeups per epoch; when the
// count exceeds a threshold the idle-detect window grows by one (gate more
// conservatively), and after several consecutive quiet epochs it shrinks by
// one. The window is bounded (paper: 5–10 cycles) and maintained separately
// per instruction type, because each type sees its own mix and schedule.
type AdaptiveIdleDetect struct {
	enabled   bool
	value     int
	min, max  int
	epochLen  int
	threshold int
	decEpochs int

	cycleInEpoch int
	criticals    int
	quietEpochs  int

	increments uint64
	decrements uint64
	epochs     uint64
}

// NewAdaptiveIdleDetect builds the mechanism from the configuration. When
// cfg.AdaptiveIdleDetect is false the value stays pinned at cfg.IdleDetect.
func NewAdaptiveIdleDetect(cfg config.Config) *AdaptiveIdleDetect {
	a := &AdaptiveIdleDetect{
		enabled:   cfg.AdaptiveIdleDetect,
		value:     cfg.IdleDetect,
		min:       cfg.IdleDetectMin,
		max:       cfg.IdleDetectMax,
		epochLen:  cfg.EpochCycles,
		threshold: cfg.CriticalThreshold,
		decEpochs: cfg.DecrementEpochs,
	}
	if a.enabled {
		if a.value < a.min {
			a.value = a.min
		}
		if a.value > a.max {
			a.value = a.max
		}
	}
	return a
}

// Value returns the current idle-detect window, which the Controllers built
// on a reads every cycle.
func (a *AdaptiveIdleDetect) Value() int { return a.value }

// FixedIdleDetect returns an idle-detect window that never adapts: v cycles.
func FixedIdleDetect(v int) *AdaptiveIdleDetect { return &AdaptiveIdleDetect{value: v} }

// Tick advances one cycle, folding in the number of critical wakeups the
// type's clusters saw this cycle.
func (a *AdaptiveIdleDetect) Tick(criticalWakeups int) {
	if !a.enabled {
		return
	}
	if criticalWakeups < 0 {
		panic(fmt.Sprintf("gating: negative critical wakeups %d", criticalWakeups))
	}
	a.criticals += criticalWakeups
	a.cycleInEpoch++
	if a.cycleInEpoch < a.epochLen {
		return
	}
	a.endEpoch()
}

// endEpoch applies the per-epoch window update and starts the next epoch.
func (a *AdaptiveIdleDetect) endEpoch() {
	a.epochs++
	a.cycleInEpoch = 0
	if a.criticals > a.threshold {
		// Performance-critical phase: back off quickly.
		if a.value < a.max {
			a.value++
			a.increments++
		}
		a.quietEpochs = 0
	} else {
		// Quiet epoch: recover the window slowly (paper: every 4 epochs).
		a.quietEpochs++
		if a.quietEpochs >= a.decEpochs {
			if a.value > a.min {
				a.value--
				a.decrements++
			}
			a.quietEpochs = 0
		}
	}
	a.criticals = 0
}

// NextEpochEnd returns k such that the k-th Tick from now ends the epoch and
// may move the window, or math.MaxInt64 when adaptation is off.
func (a *AdaptiveIdleDetect) NextEpochEnd() int64 {
	if !a.enabled {
		return never
	}
	return int64(a.epochLen - a.cycleInEpoch)
}

// AdvanceIdle advances the mechanism by n cycles with zero critical wakeups,
// bit-identical to calling Tick(0) n times: the in-progress epoch finishes
// with whatever criticals it accumulated before the batch, and every complete
// epoch after it is quiet, so the window only recovers (value decrements every
// decEpochs quiet epochs down to the minimum). A zero-critical epoch is quiet
// because the threshold is non-negative, which config.Validate enforces
// whenever adaptation is on. The simulator uses it to settle the cycles it
// leaves unticked.
func (a *AdaptiveIdleDetect) AdvanceIdle(n int64) {
	if !a.enabled || n <= 0 {
		return
	}
	// Finish the in-progress epoch; it may carry pre-batch criticals.
	toBoundary := int64(a.epochLen - a.cycleInEpoch)
	if n < toBoundary {
		a.cycleInEpoch += int(n)
		return
	}
	n -= toBoundary
	a.endEpoch()
	// The remaining full epochs are all quiet.
	e := n / int64(a.epochLen)
	a.cycleInEpoch = int(n % int64(a.epochLen))
	a.epochs += uint64(e)
	total := int64(a.quietEpochs) + e
	drops := total / int64(a.decEpochs)
	a.quietEpochs = int(total % int64(a.decEpochs))
	if room := int64(a.value - a.min); drops > room {
		drops = room
	}
	if drops > 0 {
		a.value -= int(drops)
		a.decrements += uint64(drops)
	}
}

// Stats returns how often the window moved and how many epochs elapsed.
func (a *AdaptiveIdleDetect) Stats() (increments, decrements, epochs uint64) {
	return a.increments, a.decrements, a.epochs
}
