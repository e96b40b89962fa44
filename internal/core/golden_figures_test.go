package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"warpedgates/internal/isa"
	"warpedgates/internal/stats"
)

const goldenFiguresPath = "testdata/golden_figures.txt"

// TestGoldenFigures pins the rendered table of every figure the CLI's
// `figure -id all` prints, with the CLI's own arguments, on the shared
// small-scale runner, plus every Fig. 8/9/10/11 and ablation value at full
// float precision (the tables round to three digits, so a last-bit change in
// an aggregation would pass a table-only comparison). Regenerate after an
// intentional model change with:
//
//	go test ./internal/core -run GoldenFigures -update
func TestGoldenFigures(t *testing.T) {
	got, err := goldenFigures(figRunner)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenFiguresPath, got, "GoldenFigures")
}

// goldenFigures renders the golden figures file for runner r.
func goldenFigures(r *Runner) (string, error) {
	var b strings.Builder
	b.WriteString("# Golden figures: every `figure -id all` table plus full-precision values\n")
	b.WriteString("# at config.Small() scale 0.2. Regenerate after an intentional model change:\n")
	b.WriteString("#   go test ./internal/core -run GoldenFigures -update\n")
	table := func(id string, tab *stats.Table) {
		fmt.Fprintf(&b, "== %s\n%s\n", id, tab)
	}
	value := func(v float64, path ...string) {
		fmt.Fprintf(&b, "%s %s\n", strings.Join(path, " "), strconv.FormatFloat(v, 'g', -1, 64))
	}
	techValues := func(m map[Technique]float64, path ...string) {
		for t := Baseline; t < NumTechniques; t++ {
			if v, ok := m[t]; ok {
				value(v, append(path, t.String())...)
			}
		}
	}

	f1, err := RunFig1b(r)
	if err != nil {
		return "", err
	}
	table("fig1b", f1.Table)
	f3, err := RunFig3(r, "hotspot")
	if err != nil {
		return "", err
	}
	table("fig3", f3.Table)
	f4, err := RunFig4()
	if err != nil {
		return "", err
	}
	table("fig4", f4.Table)
	f5a, err := RunFig5a(r)
	if err != nil {
		return "", err
	}
	table("fig5a", f5a.Table)
	f5b, err := RunFig5b(r)
	if err != nil {
		return "", err
	}
	table("fig5b", f5b.Table)
	f6, err := RunFig6(r, 0, 10)
	if err != nil {
		return "", err
	}
	table("fig6", f6.Table)

	f8, err := RunFig8(r)
	if err != nil {
		return "", err
	}
	table("fig8a", f8.TableA)
	table("fig8b", f8.TableB)
	table("fig8c", f8.TableC)
	for _, row := range f8.Rows {
		techValues(row.IdleFrac, "fig8a", row.Benchmark)
		techValues(row.CompMinusUncomp, "fig8b", row.Benchmark)
		techValues(row.WakeupsNorm, "fig8c", row.Benchmark)
	}
	techValues(f8.GeomeanIdle, "fig8a", "geomean")
	techValues(f8.GeomeanComp, "fig8b", "mean")
	techValues(f8.GeomeanWakeups, "fig8c", "geomean")

	for _, class := range []isa.Class{isa.INT, isa.FP} {
		f9, err := RunFig9(r, class)
		if err != nil {
			return "", err
		}
		id := "fig9a"
		if class == isa.FP {
			id = "fig9b"
		}
		table(id, f9.Table)
		for _, row := range f9.Rows {
			techValues(row.Savings, id, row.Benchmark)
		}
		techValues(f9.Average, id, "average")
	}

	f10, err := RunFig10(r)
	if err != nil {
		return "", err
	}
	table("fig10", f10.Table)
	for _, row := range f10.Rows {
		techValues(row.Performance, "fig10", row.Benchmark)
	}
	techValues(f10.Geomean, "fig10", "geomean")

	for _, sweep := range []struct {
		id  string
		run func(*Runner, []int) (*Fig11Result, error)
		vs  []int
	}{
		{"fig11a", RunFig11BET, []int{9, 14, 19}},
		{"fig11b", RunFig11Wakeup, []int{3, 6, 9}},
	} {
		f11, err := sweep.run(r, sweep.vs)
		if err != nil {
			return "", err
		}
		table(sweep.id, f11.Table)
		for _, p := range f11.Points {
			point := []string{sweep.id, p.Technique.String(), strconv.Itoa(p.ParamValue)}
			value(p.IntSavings, append(point, "int")...)
			value(p.FpSavings, append(point, "fp")...)
			value(p.Perf, append(point, "perf")...)
		}
	}

	table("hw", RunHWOverhead(r.Base.NumSPClusters).Table)

	for _, ab := range []struct {
		id  string
		run func() (*AblationResult, error)
	}{
		{"ablation-clusters", func() (*AblationResult, error) { return RunAblationClusters(r, []int{2, 4, 6}) }},
		{"ablation-maxhold", func() (*AblationResult, error) { return RunAblationMaxHold(r, []int{0, 16, 64, 256}) }},
		{"ablation-idledetect", func() (*AblationResult, error) { return RunAblationIdleDetect(r, []int{2, 5, 10, 20}) }},
		{"ablation-scheduler", func() (*AblationResult, error) { return RunAblationScheduler(r) }},
		{"ablation-aux", func() (*AblationResult, error) { return RunAblationAuxBlackout(r) }},
	} {
		res, err := ab.run()
		if err != nil {
			return "", err
		}
		table(ab.id, res.Table)
		for _, p := range res.Points {
			point := []string{ab.id, strconv.Quote(p.Label)}
			value(p.IntSavings, append(point, "a")...)
			value(p.FpSavings, append(point, "b")...)
			value(p.Perf, append(point, "perf")...)
		}
	}
	return b.String(), nil
}
