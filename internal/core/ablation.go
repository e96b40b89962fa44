package core

import (
	"fmt"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/power"
	"warpedgates/internal/stats"
)

// AblationPoint is one configuration of an ablation sweep: suite-average INT
// and FP static savings plus geomean performance for a technique variant.
type AblationPoint struct {
	Label      string
	IntSavings float64
	FpSavings  float64
	Perf       float64
}

// AblationResult carries one ablation study.
type AblationResult struct {
	Name   string
	Points []AblationPoint
	Table  *stats.Table
}

// ablationStudy collects one ablation's labelled variants for suiteAverages.
// Every variant is priced by the base machine's power model.
type ablationStudy struct {
	r        *Runner
	name     string
	labels   []string
	variants []suiteVariant
}

// add appends a variant that measures cfg against base.
func (s *ablationStudy) add(label string, base, cfg config.Config) {
	s.labels = append(s.labels, label)
	s.variants = append(s.variants, suiteVariant{base, cfg, power.Default(s.r.Base.BreakEven)})
}

// savingsColumn heads an ablation table's savings column per measured class.
var savingsColumn = [isa.NumClasses]string{
	isa.INT: "Int savings", isa.FP: "Fp savings", isa.SFU: "SFU savings", isa.LDST: "LDST savings",
}

// run measures every variant and renders the study's table. The A and B
// class averages fill the IntSavings and FpSavings fields.
func (s *ablationStudy) run(classA, classB isa.Class) (*AblationResult, error) {
	avgs, err := suiteAverages(s.r, s.variants, classA, classB)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: s.name}
	res.Table = stats.NewTable(s.name, "variant", savingsColumn[classA], savingsColumn[classB], "perf")
	for i, avg := range avgs {
		p := AblationPoint{Label: s.labels[i], IntSavings: avg.a, FpSavings: avg.b, Perf: avg.perf}
		res.Points = append(res.Points, p)
		res.Table.AddRowf(p.Label, p.IntSavings, p.FpSavings, p.Perf)
	}
	return res, nil
}

// RunAblationClusters studies the SP-cluster trend the paper's §5 points at:
// Fermi has two INT/FP clusters per SM, Kepler six, AMD GCN four. More
// clusters give Coordinated Blackout more sleeping peers per unit of work,
// so per-cluster savings grow with the cluster count.
func RunAblationClusters(r *Runner, clusterCounts []int) (*AblationResult, error) {
	if len(clusterCounts) == 0 {
		return nil, fmt.Errorf("core: cluster ablation needs at least one count")
	}
	s := &ablationStudy{r: r, name: "Ablation — SP clusters per SM (Fermi 2, GCN 4, Kepler 6)"}
	for _, n := range clusterCounts {
		if n <= 0 {
			return nil, fmt.Errorf("core: invalid cluster count %d", n)
		}
		base := Baseline.Apply(r.Base)
		base.NumSPClusters = n
		cfg := WarpedGates.Apply(r.Base)
		cfg.NumSPClusters = n
		s.add(fmt.Sprintf("%d clusters", n), base, cfg)
	}
	return s.run(isa.INT, isa.FP)
}

// RunAblationMaxHold studies the GATES forced-priority-switch threshold the
// paper's §4 offers against starvation: 0 disables it (the paper default);
// small values force frequent switches, eroding the type clustering GATES
// exists to create.
func RunAblationMaxHold(r *Runner, holds []int) (*AblationResult, error) {
	if len(holds) == 0 {
		return nil, fmt.Errorf("core: max-hold ablation needs at least one value")
	}
	s := &ablationStudy{r: r, name: "Ablation — GATES forced priority switch threshold"}
	for _, h := range holds {
		if h < 0 {
			return nil, fmt.Errorf("core: invalid max hold %d", h)
		}
		cfg := WarpedGates.Apply(r.Base)
		cfg.GATESMaxHold = h
		label := fmt.Sprintf("hold<=%d", h)
		if h == 0 {
			label = "unbounded (paper)"
		}
		s.add(label, Baseline.Apply(r.Base), cfg)
	}
	return s.run(isa.INT, isa.FP)
}

// RunAblationAuxBlackout studies extending Blackout to the SFU and LD/ST
// units, which the paper leaves under conventional gating (§3 argues SFUs
// are only 2.5% of execution-unit leakage). It reports suite-average static
// savings for the auxiliary units with and without the extension: SFU
// savings in the IntSavings field, LDST savings in FpSavings.
func RunAblationAuxBlackout(r *Runner) (*AblationResult, error) {
	s := &ablationStudy{r: r, name: "Ablation — Blackout on SFU/LDST units"}
	for _, aux := range []bool{false, true} {
		cfg := WarpedGates.Apply(r.Base)
		cfg.BlackoutAux = aux
		label := "conventional aux (paper)"
		if aux {
			label = "blackout aux (extension)"
		}
		s.add(label, Baseline.Apply(r.Base), cfg)
	}
	return s.run(isa.SFU, isa.LDST)
}

// RunAblationScheduler compares the two warp schedulers under conventional
// gating, the two-level scheduler (paper baseline) and GATES, quantifying
// how much gating opportunity each scheduler exposes.
func RunAblationScheduler(r *Runner) (*AblationResult, error) {
	s := &ablationStudy{r: r, name: "Ablation — scheduler under conventional gating"}
	for _, kind := range []config.SchedulerKind{config.SchedTwoLevel, config.SchedGATES} {
		cfg := ConvPG.Apply(r.Base)
		cfg.Scheduler = kind
		s.add(kind.String(), Baseline.Apply(r.Base), cfg)
	}
	return s.run(isa.INT, isa.FP)
}

// RunAblationIdleDetect studies the static idle-detect window for
// conventional gating (the naive mitigation §4 dismisses: growing the window
// avoids uncompensated windows but wastes gateable idle cycles).
func RunAblationIdleDetect(r *Runner, windows []int) (*AblationResult, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("core: idle-detect ablation needs at least one value")
	}
	s := &ablationStudy{r: r, name: "Ablation — static idle-detect window under ConvPG"}
	for _, w := range windows {
		if w < 0 {
			return nil, fmt.Errorf("core: invalid idle-detect %d", w)
		}
		cfg := ConvPG.Apply(r.Base)
		cfg.IdleDetect = w
		s.add(fmt.Sprintf("idle-detect %d", w), Baseline.Apply(r.Base), cfg)
	}
	return s.run(isa.INT, isa.FP)
}
