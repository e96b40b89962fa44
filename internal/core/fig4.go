package core

import (
	"fmt"
	"strings"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
	"warpedgates/internal/stats"
)

// Fig4Schedule is the issue timeline of the paper's Figure 4 walkthrough on
// the simplified one-scheduler, one-SP-cluster machine: which cycle each
// instruction type issued at, and the resulting idle structure of each pipe.
type Fig4Schedule struct {
	Scheduler config.SchedulerKind
	// IssueCycles maps issue order to (cycle, class).
	Issues []Fig4Issue
	// IdlePeriodsINT / IdlePeriodsFP are the maximal idle-run lengths of
	// each pipe over the schedule's span.
	IdlePeriodsINT []int
	IdlePeriodsFP  []int
	// Span is the total number of cycles from first issue to pipeline drain.
	Span int64
}

// Fig4Issue records one instruction issue.
type Fig4Issue struct {
	Cycle int64
	Warp  int
	Class isa.Class
}

// Fig4Result compares the two-level schedule with the GATES schedule on the
// paper's Figure 4 microkernel.
type Fig4Result struct {
	TwoLevel Fig4Schedule
	GATES    Fig4Schedule
	Table    *stats.Table
}

// RunFig4 regenerates the paper's Figure 4 walkthrough: a 12-entry active
// warp set holding an interleaving of independent INT and FP adds (latency 4,
// initiation interval 1) issued on a machine with a single scheduler and one
// INT and one FP pipe. The two-level scheduler issues front-to-back, leaving
// short isolated bubbles; GATES clusters by type, coalescing the bubbles
// into one long idle run per pipe.
func RunFig4() (*Fig4Result, error) {
	res := &Fig4Result{}
	for _, kind := range []config.SchedulerKind{config.SchedTwoLevel, config.SchedGATES} {
		sched, err := runFig4Once(kind)
		if err != nil {
			return nil, err
		}
		switch kind {
		case config.SchedTwoLevel:
			res.TwoLevel = *sched
		default:
			res.GATES = *sched
		}
	}

	t := stats.NewTable("Fig. 4 — warp scheduling effect on idle cycles (latency 4, ii 1)",
		"scheduler", "issue order (cycle:type)", "INT idle runs", "FP idle runs")
	for _, s := range []*Fig4Schedule{&res.TwoLevel, &res.GATES} {
		var order []string
		for _, is := range s.Issues {
			order = append(order, fmt.Sprintf("%d:%s", is.Cycle, is.Class))
		}
		t.AddRow(s.Scheduler.String(), strings.Join(order, " "),
			fmt.Sprint(s.IdlePeriodsINT), fmt.Sprint(s.IdlePeriodsFP))
	}
	res.Table = t
	return res, nil
}

// runFig4Once executes the microkernel under one scheduler kind and extracts
// the schedule.
func runFig4Once(kind config.SchedulerKind) (*Fig4Schedule, error) {
	cfg := config.GTX480()
	cfg.NumSMs = 1
	cfg.NumSchedulers = 1
	cfg.NumSPClusters = 1
	cfg.Scheduler = kind
	cfg.Gating = config.GateNone
	cfg.MaxWarpsPerSM = 48
	cfg.MaxCycles = 10000

	k := kernels.Fig4Microkernel()
	gpu, err := sim.NewGPU(cfg, k)
	if err != nil {
		return nil, err
	}
	out := &Fig4Schedule{Scheduler: kind}
	gpu.SetIssueTracer(func(smID int, cycle int64, warpIdx int, class isa.Class, cluster int) {
		out.Issues = append(out.Issues, Fig4Issue{Cycle: cycle, Warp: warpIdx, Class: class})
	})
	rep := gpu.Run()
	out.Span = rep.Cycles

	for _, dom := range []struct {
		class isa.Class
		dst   *[]int
	}{{isa.INT, &out.IdlePeriodsINT}, {isa.FP, &out.IdlePeriodsFP}} {
		rep.Domains[dom.class].IdlePeriods.Each(func(v int, n uint64) {
			for ; n > 0; n-- {
				*dom.dst = append(*dom.dst, v)
			}
		})
	}
	return out, nil
}
