package core

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/stats"
)

const (
	goldenFiguresPath = "testdata/golden_figures.txt"
	paperFiguresPath  = "testdata/paper_figures.txt"
)

// TestGoldenFigures pins the rendered table of every figure the CLI's
// `figure -id all` prints, with the CLI's own arguments, on the shared
// small-scale runner, plus every Fig. 3/8/9/10/11 and ablation value at full
// float precision (the tables round to three digits, so a last-bit change in
// an aggregation would pass a table-only comparison). Regenerate after an
// intentional model change with:
//
//	go test ./internal/core -run GoldenFigures -update
func TestGoldenFigures(t *testing.T) {
	got, err := goldenFigures(figRunner, "Golden figures", "config.Small() scale 0.2",
		"go test ./internal/core -run GoldenFigures -update")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenFiguresPath, got, "GoldenFigures")
}

// TestPaperFigures rewrites the full-scale figure record, the same file
// rendered on the paper's machine (the GTX480 at scale 1), which
// TestPaperClaims reads for its full-scale rows. It runs only under -update:
// the record takes about 100 s on two cores, so tier-1 reads the committed
// file and CI regenerates it with `make paper-figures` and diffs.
func TestPaperFigures(t *testing.T) {
	if !*updateGolden {
		t.Skip("regenerated only under -update (make paper-figures)")
	}
	got, err := goldenFigures(NewRunner(config.GTX480()), "Paper figures", "config.GTX480() scale 1",
		"make paper-figures")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, paperFiguresPath, got, "PaperFigures")
}

// goldenFigures renders a figure record for runner r: what the record is,
// the machine and scale r runs, and the command that regenerates it head
// the file.
func goldenFigures(r *Runner, what, machine, regen string) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: every `figure -id all` table plus full-precision values\n", what)
	fmt.Fprintf(&b, "# at %s. Regenerate after an intentional model change:\n", machine)
	fmt.Fprintf(&b, "#   %s\n", regen)
	table := func(id string, tab *stats.Table) {
		fmt.Fprintf(&b, "== %s\n%s\n", id, tab)
	}
	value := func(v float64, path ...string) {
		fmt.Fprintf(&b, "%s %s\n", strings.Join(path, " "), strconv.FormatFloat(v, 'g', -1, 64))
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
	for _, row := range f3.Rows {
		value(row.Wasted, "fig3", row.Technique.String(), "wasted")
		value(row.Negative, "fig3", row.Technique.String(), "negative")
		value(row.Positive, "fig3", row.Technique.String(), "positive")
	}
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
		emitTechs(value, row.IdleFrac, "fig8a", row.Benchmark)
		emitTechs(value, row.CompMinusUncomp, "fig8b", row.Benchmark)
		emitTechs(value, row.WakeupsNorm, "fig8c", row.Benchmark)
	}
	emitTechs(value, f8.GeomeanIdle, "fig8a", "geomean")
	emitTechs(value, f8.GeomeanComp, "fig8b", "mean")
	emitTechs(value, f8.GeomeanWakeups, "fig8c", "geomean")

	for _, class := range []isa.Class{isa.INT, isa.FP} {
		f9, err := RunFig9(r, class)
		if err != nil {
			return "", err
		}
		table(fig9ID(class), f9.Table)
		emitFig9(value, f9)
	}

	f10, err := RunFig10(r)
	if err != nil {
		return "", err
	}
	table("fig10", f10.Table)
	emitFig10(value, f10)

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

// TestFiguresMatchGolden checks the Figures catalogue against the hand-listed
// reference above: on figRunner every entry's rendered table must open its
// "== id" section of the golden figures file (full-precision values may
// follow it), and the catalogue's IDs, in order, must equal the file's
// section headers.
func TestFiguresMatchGolden(t *testing.T) {
	data, err := os.ReadFile(goldenFiguresPath)
	if err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`(?m)^== ([^ \n]+)\n`)
	text := string(data)
	var ids []string
	sections := map[string]string{}
	locs := header.FindAllStringSubmatchIndex(text, -1)
	for i, loc := range locs {
		end := len(text)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		id := text[loc[2]:loc[3]]
		ids = append(ids, id)
		sections[id] = text[loc[1]:end]
	}
	var catalogue []string
	for _, f := range Figures {
		catalogue = append(catalogue, f.ID)
		tab, err := f.Gen(figRunner)
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		if got := tab.String() + "\n"; !strings.HasPrefix(sections[f.ID], got) {
			t.Errorf("%s: catalogue table differs from the golden section:\n got:\n%s\nwant:\n%s", f.ID, got, sections[f.ID])
		}
	}
	if !reflect.DeepEqual(catalogue, ids) {
		t.Errorf("catalogue IDs %v, golden file headers %v", catalogue, ids)
	}
}
