// Package trace provides cycle-accurate observation of a simulation: a
// recorder that samples every gating domain's state each cycle and renders
// ASCII waveforms. It exists for debugging gating policies and for
// demonstrating the paper's mechanisms at human scale (the `warpedgates
// trace` subcommand); statistics for the figures come from the simulator's
// own counters, not from traces.
package trace

import (
	"fmt"
	"strings"

	"warpedgates/internal/gating"
	"warpedgates/internal/isa"
	"warpedgates/internal/sim"
)

// Lane identifies one traced gating domain.
type Lane struct {
	Class   isa.Class
	Cluster int
}

// String names the lane.
func (l Lane) String() string {
	if l.Class == isa.SFU || l.Class == isa.LDST {
		return l.Class.String()
	}
	return fmt.Sprintf("%s%d", l.Class, l.Cluster)
}

// Sample is one lane's state during one cycle.
type Sample struct {
	Busy  bool
	State gating.State
}

// Glyph returns the waveform character for the sample:
//
//	# busy (instruction in the pipeline)
//	. idle but powered
//	u gated, uncompensated
//	C gated, compensated
//	w waking up
func (s Sample) Glyph() byte {
	switch {
	case s.Busy:
		return '#'
	case s.State == gating.StUncompensated:
		return 'u'
	case s.State == gating.StCompensated:
		return 'C'
	case s.State == gating.StWakeup:
		return 'w'
	default:
		return '.'
	}
}

// Recorder captures per-cycle samples of one SM's gating domains over a
// bounded window.
type Recorder struct {
	smID     int
	from, to int64
	lanes    []Lane
	samples  map[Lane][]Sample
	issues   []sim.IssueEvent
}

// NewRecorder traces SM smID over simulated cycles [from, to).
func NewRecorder(smID int, from, to int64) *Recorder {
	if to <= from {
		panic(fmt.Sprintf("trace: empty window [%d,%d)", from, to))
	}
	return &Recorder{
		smID:    smID,
		from:    from,
		to:      to,
		samples: make(map[Lane][]Sample),
	}
}

// Attach installs the recorder's probes on a GPU. Call before Run.
func (r *Recorder) Attach(g *sim.GPU) {
	g.SetCycleProbe(func(smID int, cycle int64, lanes []sim.LaneState) {
		if smID != r.smID || cycle < r.from || cycle >= r.to {
			return
		}
		for _, ls := range lanes {
			lane := Lane{Class: ls.Class, Cluster: ls.Cluster}
			if _, ok := r.samples[lane]; !ok {
				r.lanes = append(r.lanes, lane)
			}
			r.samples[lane] = append(r.samples[lane], Sample{Busy: ls.Busy, State: ls.State})
		}
	})
	g.SetIssueTracer(func(smID int, cycle int64, warpIdx int, class isa.Class, cluster int) {
		if smID != r.smID || cycle < r.from || cycle >= r.to {
			return
		}
		r.issues = append(r.issues, sim.IssueEvent{
			Cycle: cycle, Warp: warpIdx, Class: class, Cluster: cluster,
		})
	})
}

// Lanes returns the traced lanes in first-seen order.
func (r *Recorder) Lanes() []Lane { return r.lanes }

// Samples returns the recorded samples for a lane.
func (r *Recorder) Samples(l Lane) []Sample { return r.samples[l] }

// Issues returns the recorded issue events.
func (r *Recorder) Issues() []sim.IssueEvent { return r.issues }

// Waveform renders the trace as one ASCII line per lane, chunked into rows
// of width cycles. Legend: '#' busy, '.' idle powered, 'u' gated
// uncompensated, 'C' gated compensated, 'w' waking.
func (r *Recorder) Waveform(width int) string {
	if width <= 0 {
		width = 80
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SM %d cycles %d..%d  (#=busy .=idle u=uncompensated C=compensated w=wakeup)\n",
		r.smID, r.from, r.to-1)
	n := 0
	for _, l := range r.lanes {
		if len(r.samples[l]) > n {
			n = len(r.samples[l])
		}
	}
	for start := 0; start < n; start += width {
		end := start + width
		if end > n {
			end = n
		}
		fmt.Fprintf(&b, "cycle %d\n", r.from+int64(start))
		for _, l := range r.lanes {
			ss := r.samples[l]
			b.WriteString(fmt.Sprintf("%-5s ", l))
			for i := start; i < end && i < len(ss); i++ {
				b.WriteByte(ss[i].Glyph())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// GatedFraction returns the fraction of traced cycles a lane spent gated.
func (r *Recorder) GatedFraction(l Lane) float64 {
	ss := r.samples[l]
	if len(ss) == 0 {
		return 0
	}
	n := 0
	for _, s := range ss {
		if s.State == gating.StUncompensated || s.State == gating.StCompensated {
			n++
		}
	}
	return float64(n) / float64(len(ss))
}

// BusyFraction returns the fraction of traced cycles a lane was executing.
func (r *Recorder) BusyFraction(l Lane) float64 {
	ss := r.samples[l]
	if len(ss) == 0 {
		return 0
	}
	n := 0
	for _, s := range ss {
		if s.Busy {
			n++
		}
	}
	return float64(n) / float64(len(ss))
}
