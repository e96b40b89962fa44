package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"warpedgates/internal/stats"
)

// cmdBenchcmp compares BENCH_sim.json artifacts. With two positional
// arguments (old first, new second) it compares cell by cell, printing
// per-cell wall-clock speedups plus the steady-state, matrix-wall and
// makespan figures; that mode's exit status is always zero — the tool reports,
// thresholds are the reader's policy — but cells present in only one file
// are called out so silent matrix drift can't hide. With -history DIR it
// walks every date-stamped BENCH_<YYYY-MM-DD>*.json snapshot in the
// directory instead (never `make bench`'s BENCH_sim.json), prints the
// per-cell trajectory, and exits nonzero when the newest snapshot's
// steady-state cost regressed more than -regress percent past the best one.
func cmdBenchcmp(args []string) error {
	fs := flag.NewFlagSet("benchcmp", flag.ExitOnError)
	history := fs.String("history", "", "directory of date-stamped BENCH_<YYYY-MM-DD>*.json snapshots (other BENCH_*.json files, such as BENCH_sim.json, are ignored): print the whole trajectory instead of comparing two files")
	regress := fs.Float64("regress", 10, "with -history: tolerated steady-state ns/cycle regression of the newest snapshot over the best one, in percent (0 disables the gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *history != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("benchcmp: -history takes no positional arguments")
		}
		return benchcmpHistory(os.Stdout, *history, *regress)
	}
	args = fs.Args()
	if len(args) != 2 {
		return fmt.Errorf("benchcmp wants exactly two arguments: OLD.json NEW.json (or -history DIR)")
	}
	oldRep, err := readBenchReport(args[0])
	if err != nil {
		return err
	}
	newRep, err := readBenchReport(args[1])
	if err != nil {
		return err
	}
	if oldRep.SMs != newRep.SMs || oldRep.Scale != newRep.Scale || oldRep.GOMAXPROCS != newRep.GOMAXPROCS {
		fmt.Printf("note: machine mismatch — old sms=%d scale=%g cores=%d, new sms=%d scale=%g cores=%d; speedups conflate code and configuration\n",
			oldRep.SMs, oldRep.Scale, oldRep.GOMAXPROCS, newRep.SMs, newRep.Scale, newRep.GOMAXPROCS)
	}

	type cellKey struct{ bench, tech string }
	oldCells := make(map[cellKey]benchCell, len(oldRep.Cells))
	for _, c := range oldRep.Cells {
		oldCells[cellKey{c.Bench, c.Technique}] = c
	}

	t := stats.NewTable(fmt.Sprintf("bench comparison: %s -> %s", args[0], args[1]),
		"benchmark", "technique", "old ms", "new ms", "speedup", "old ns/cyc", "new ns/cyc")
	matched := 0
	for _, nc := range newRep.Cells {
		oc, ok := oldCells[cellKey{nc.Bench, nc.Technique}]
		if !ok {
			fmt.Printf("note: %s/%s only in %s\n", nc.Bench, nc.Technique, args[1])
			continue
		}
		delete(oldCells, cellKey{nc.Bench, nc.Technique})
		matched++
		// A non-positive wall time means the cell was not measured (or the
		// clock misbehaved); a "0.00x" there would read as a real regression.
		speedup := interface{}("n/a")
		if nc.WallMS > 0 && oc.WallMS > 0 {
			speedup = oc.WallMS / nc.WallMS
		}
		t.AddRowf(nc.Bench, nc.Technique, oc.WallMS, nc.WallMS, speedup, oc.NsPerCycle, nc.NsPerCycle)
	}
	for k := range oldCells {
		fmt.Printf("note: %s/%s only in %s\n", k.bench, k.tech, args[0])
	}
	fmt.Println(t)

	if o, n := oldRep.SteadyState, newRep.SteadyState; o.NsPerCycle > 0 && n.NsPerCycle > 0 {
		fmt.Printf("steady state: %.0f -> %.0f ns/cycle (%.2fx), %g -> %g allocs/cycle\n",
			o.NsPerCycle, n.NsPerCycle, o.NsPerCycle/n.NsPerCycle, o.AllocsPerCycle, n.AllocsPerCycle)
	}
	if o, n := oldRep.Totals, newRep.Totals; o.FastForwardMS > 0 && n.FastForwardMS > 0 {
		fmt.Printf("matrix wall: %.0f -> %.0f ms (%.2fx)\n",
			o.FastForwardMS, n.FastForwardMS, o.FastForwardMS/n.FastForwardMS)
	}
	for _, which := range []struct {
		name string
		rep  *benchReport
	}{{args[0], oldRep}, {args[1], newRep}} {
		if m := which.rep.Makespan; m.MS > 0 {
			fmt.Printf("makespan in %s (%d cores, %d jobs): %.0f ms\n",
				which.name, which.rep.GOMAXPROCS, m.Jobs, m.MS)
		}
	}
	fmt.Printf("compared %d cells\n", matched)
	return nil
}

// benchcmpHistory renders the regression dashboard over a directory of
// date-stamped snapshots — BENCH_<YYYY-MM-DD>*.json, e.g.
// BENCH_2026-08-08.json — ordered by filename, which is chronological. Other
// BENCH_*.json files are not snapshots: `make bench` writes its scratch output
// to BENCH_sim.json, which would sort after every date and be gated as the
// newest. The
// per-cell table tracks ns/cycle across every snapshot plus the newest-vs-
// first delta; the steady-state gate compares the newest snapshot against
// the best in the trajectory and fails past the tolerated regression.
func benchcmpHistory(w io.Writer, dir string, regressPct float64) error {
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]*.json"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	if len(files) < 2 {
		return fmt.Errorf("benchcmp: -history needs at least two dated BENCH_<YYYY-MM-DD>*.json snapshots in %s, found %d", dir, len(files))
	}
	reps := make([]*benchReport, len(files))
	labels := make([]string, len(files))
	for i, f := range files {
		if reps[i], err = readBenchReport(f); err != nil {
			return err
		}
		labels[i] = strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
	}
	first, last := reps[0], reps[len(reps)-1]
	for i, r := range reps[1:] {
		if r.SMs != first.SMs || r.Scale != first.Scale || r.GOMAXPROCS != first.GOMAXPROCS {
			fmt.Fprintf(w, "note: machine mismatch — %s ran sms=%d scale=%g cores=%d, %s ran sms=%d scale=%g cores=%d; deltas conflate code and configuration\n",
				labels[0], first.SMs, first.Scale, first.GOMAXPROCS,
				labels[i+1], r.SMs, r.Scale, r.GOMAXPROCS)
			break
		}
	}

	// Per-cell ns/cycle across the trajectory. The newest snapshot defines
	// the row set; older snapshots missing a cell show "-".
	type cellKey struct{ bench, tech string }
	perSnap := make([]map[cellKey]float64, len(reps))
	for i, r := range reps {
		perSnap[i] = make(map[cellKey]float64, len(r.Cells))
		for _, c := range r.Cells {
			perSnap[i][cellKey{c.Bench, c.Technique}] = c.NsPerCycle
		}
	}
	header := append([]string{"benchmark", "technique"}, labels...)
	header = append(header, "delta")
	t := stats.NewTable(fmt.Sprintf("bench history: %s (%d snapshots, ns/cycle)", dir, len(reps)), header...)
	for _, c := range last.Cells {
		k := cellKey{c.Bench, c.Technique}
		row := []string{c.Bench, c.Technique}
		for i := range reps {
			if v, ok := perSnap[i][k]; ok && v > 0 {
				row = append(row, fmt.Sprintf("%.1f", v))
			} else {
				row = append(row, "-")
			}
		}
		delta := "-"
		if v0, ok := perSnap[0][k]; ok && v0 > 0 && c.NsPerCycle > 0 {
			delta = fmt.Sprintf("%+.1f%%", (c.NsPerCycle-v0)/v0*100)
		}
		t.AddRow(append(row, delta)...)
	}
	fmt.Fprintln(w, t)

	fmt.Fprintln(w, "steady state (hot loop, one busy SM):")
	best, bestLabel := 0.0, ""
	for i, r := range reps {
		ns := r.SteadyState.NsPerCycle
		if ns <= 0 {
			fmt.Fprintf(w, "  %-24s (no measurement)\n", labels[i])
			continue
		}
		fmt.Fprintf(w, "  %-24s %.0f ns/cycle, %g allocs/cycle\n", labels[i], ns, r.SteadyState.AllocsPerCycle)
		if best == 0 || ns < best {
			best, bestLabel = ns, labels[i]
		}
	}
	newest := last.SteadyState.NsPerCycle
	switch {
	case regressPct <= 0:
		fmt.Fprintln(w, "steady-state gate disabled (-regress 0)")
	case newest <= 0:
		return fmt.Errorf("benchcmp: newest snapshot %s has no steady-state measurement to gate on", labels[len(labels)-1])
	case best > 0 && newest > best*(1+regressPct/100):
		return fmt.Errorf("benchcmp: steady-state regression: %s is %.0f ns/cycle, %.1f%% above the best snapshot %s (%.0f ns/cycle, limit %g%%)",
			labels[len(labels)-1], newest, (newest-best)/best*100, bestLabel, best, regressPct)
	default:
		fmt.Fprintf(w, "steady-state gate: %s at %.0f ns/cycle is within %g%% of the best (%s, %.0f ns/cycle)\n",
			labels[len(labels)-1], newest, regressPct, bestLabel, best)
	}
	return nil
}

// readBenchReport loads one BENCH_sim.json payload.
func readBenchReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
