package core

import (
	"warpedgates/internal/isa"
	"warpedgates/internal/stats"
)

// Figure is one table of the paper's evaluation: its ID (the CLI's
// `figure -id`) and the driver call that renders it on a runner.
type Figure struct {
	ID  string
	Gen func(*Runner) (*stats.Table, error)
}

// Figures is the evaluation's catalogue — 15 figure tables and 5 ablations —
// in `figure -id all` order, with the arguments the paper uses: hotspot for
// Fig. 3, idle-detect 0–10 for Fig. 6, BET {9,14,19} and wakeup delay {3,6,9}
// for Fig. 11, the runner's own cluster count for the hardware overhead, and
// each ablation's sweep. The CLI and the bench harness both iterate it.
var Figures = []Figure{
	{"fig1b", func(r *Runner) (*stats.Table, error) { return tableOf(RunFig1b(r)) }},
	{"fig3", func(r *Runner) (*stats.Table, error) { return tableOf(RunFig3(r, "hotspot")) }},
	{"fig4", func(*Runner) (*stats.Table, error) { return tableOf(RunFig4()) }},
	{"fig5a", func(r *Runner) (*stats.Table, error) { return tableOf(RunFig5a(r)) }},
	{"fig5b", func(r *Runner) (*stats.Table, error) { return tableOf(RunFig5b(r)) }},
	{"fig6", func(r *Runner) (*stats.Table, error) { return tableOf(RunFig6(r, 0, 10)) }},
	{"fig8a", func(r *Runner) (*stats.Table, error) { return fig8Panel(r, 0) }},
	{"fig8b", func(r *Runner) (*stats.Table, error) { return fig8Panel(r, 1) }},
	{"fig8c", func(r *Runner) (*stats.Table, error) { return fig8Panel(r, 2) }},
	{"fig9a", func(r *Runner) (*stats.Table, error) { return tableOf(RunFig9(r, isa.INT)) }},
	{"fig9b", func(r *Runner) (*stats.Table, error) { return tableOf(RunFig9(r, isa.FP)) }},
	{"fig10", func(r *Runner) (*stats.Table, error) { return tableOf(RunFig10(r)) }},
	{"fig11a", func(r *Runner) (*stats.Table, error) { return tableOf(RunFig11BET(r, []int{9, 14, 19})) }},
	{"fig11b", func(r *Runner) (*stats.Table, error) { return tableOf(RunFig11Wakeup(r, []int{3, 6, 9})) }},
	{"hw", func(r *Runner) (*stats.Table, error) { return RunHWOverhead(r.Base.NumSPClusters).Table, nil }},
	{"ablation-clusters", func(r *Runner) (*stats.Table, error) { return tableOf(RunAblationClusters(r, []int{2, 4, 6})) }},
	{"ablation-maxhold", func(r *Runner) (*stats.Table, error) { return tableOf(RunAblationMaxHold(r, []int{0, 16, 64, 256})) }},
	{"ablation-idledetect", func(r *Runner) (*stats.Table, error) { return tableOf(RunAblationIdleDetect(r, []int{2, 5, 10, 20})) }},
	{"ablation-scheduler", func(r *Runner) (*stats.Table, error) { return tableOf(RunAblationScheduler(r)) }},
	{"ablation-aux", func(r *Runner) (*stats.Table, error) { return tableOf(RunAblationAuxBlackout(r)) }},
}

// tableOf adapts a driver's (result, error) pair to a Figure's Gen result,
// never touching the result when the driver failed.
func tableOf[R interface{ table() *stats.Table }](res R, err error) (*stats.Table, error) {
	if err != nil {
		return nil, err
	}
	return res.table(), nil
}

// fig8Panel renders one panel of Fig. 8: 0, 1 and 2 are panels a, b and c.
func fig8Panel(r *Runner, panel int) (*stats.Table, error) {
	f, err := RunFig8(r)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{f.TableA, f.TableB, f.TableC}[panel], nil
}

func (f *Fig1bResult) table() *stats.Table    { return f.Table }
func (f *Fig3Result) table() *stats.Table     { return f.Table }
func (f *Fig4Result) table() *stats.Table     { return f.Table }
func (f *Fig5aResult) table() *stats.Table    { return f.Table }
func (f *Fig5bResult) table() *stats.Table    { return f.Table }
func (f *Fig6Result) table() *stats.Table     { return f.Table }
func (f *Fig9Result) table() *stats.Table     { return f.Table }
func (f *Fig10Result) table() *stats.Table    { return f.Table }
func (f *Fig11Result) table() *stats.Table    { return f.Table }
func (f *AblationResult) table() *stats.Table { return f.Table }
