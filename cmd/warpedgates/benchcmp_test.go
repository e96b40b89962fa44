package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// historyReport builds a minimal BENCH_sim.json snapshot with one cell and
// the given steady-state cost.
func historyReport(steadyNs float64, cellNs float64) *benchReport {
	rep := &benchReport{SMs: 6, Scale: 0.25, GOMAXPROCS: 4}
	rep.SteadyState.Bench = "hotspot"
	rep.SteadyState.Technique = "WarpedGates"
	rep.SteadyState.NsPerCycle = steadyNs
	rep.SteadyState.AllocsPerCycle = 0
	rep.Cells = []benchCell{{
		Bench: "hotspot", Technique: "WarpedGates",
		Cycles: 100000, WallMS: cellNs / 10, NsPerCycle: cellNs,
	}}
	return rep
}

// writeHistory lays snapshots into dir as BENCH_<label>.json files; labels
// are dates, which sort in trajectory order.
func writeHistory(t *testing.T, dir string, snaps map[string]*benchReport) {
	t.Helper()
	for label, rep := range snaps {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "BENCH_"+label+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBenchcmpHistory pins the regression-dashboard contract: the trajectory
// table renders every snapshot, and the steady-state gate exits nonzero only
// past the tolerated regression.
func TestBenchcmpHistory(t *testing.T) {
	t.Run("improving trajectory passes", func(t *testing.T) {
		dir := t.TempDir()
		writeHistory(t, dir, map[string]*benchReport{
			"2026-08-01": historyReport(500, 900),
			"2026-08-02": historyReport(450, 850),
			"2026-08-03": historyReport(400, 800),
		})
		var out strings.Builder
		if err := benchcmpHistory(&out, dir, 10); err != nil {
			t.Fatalf("improving history failed the gate: %v", err)
		}
		for _, want := range []string{"2026-08-01", "2026-08-03", "hotspot", "WarpedGates", "-11.1%", "steady-state gate"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("dashboard missing %q:\n%s", want, out.String())
			}
		}
	})
	t.Run("regression within tolerance passes", func(t *testing.T) {
		dir := t.TempDir()
		writeHistory(t, dir, map[string]*benchReport{
			"2026-08-01": historyReport(400, 800),
			"2026-08-02": historyReport(430, 800), // +7.5% over the best
		})
		if err := benchcmpHistory(io.Discard, dir, 10); err != nil {
			t.Fatalf("7.5%% regression failed a 10%% gate: %v", err)
		}
	})
	t.Run("regression past tolerance fails", func(t *testing.T) {
		dir := t.TempDir()
		writeHistory(t, dir, map[string]*benchReport{
			"2026-08-01": historyReport(400, 800),
			"2026-08-02": historyReport(480, 800), // +20% over the best
		})
		err := benchcmpHistory(io.Discard, dir, 10)
		if err == nil {
			t.Fatal("20% steady-state regression passed a 10% gate")
		}
		if !strings.Contains(err.Error(), "steady-state regression") {
			t.Fatalf("unexpected gate error: %v", err)
		}
		if exitCode(err) != 1 {
			t.Fatalf("gate failure maps to exit %d, want 1", exitCode(err))
		}
	})
	t.Run("gate disabled reports only", func(t *testing.T) {
		dir := t.TempDir()
		writeHistory(t, dir, map[string]*benchReport{
			"2026-08-01": historyReport(400, 800),
			"2026-08-02": historyReport(480, 800),
		})
		if err := benchcmpHistory(io.Discard, dir, 0); err != nil {
			t.Fatalf("-regress 0 must disable the gate: %v", err)
		}
	})
	t.Run("fewer than two snapshots is an error", func(t *testing.T) {
		dir := t.TempDir()
		writeHistory(t, dir, map[string]*benchReport{"2026-08-01": historyReport(400, 800)})
		if err := benchcmpHistory(io.Discard, dir, 10); err == nil {
			t.Fatal("single-snapshot history accepted")
		}
	})
	t.Run("missing steady state in newest snapshot fails the gate", func(t *testing.T) {
		dir := t.TempDir()
		writeHistory(t, dir, map[string]*benchReport{
			"2026-08-01": historyReport(400, 800),
			"2026-08-02": historyReport(0, 800),
		})
		if err := benchcmpHistory(io.Discard, dir, 10); err == nil {
			t.Fatal("gate passed with no newest steady-state measurement")
		}
	})
}

// TestBenchcmpHistoryIgnoresScratchOutput: `make bench` writes its scratch
// output to BENCH_sim.json, which sorts after every dated snapshot. The gate
// must judge the newest dated snapshot — here a 20% regression — and not a
// fast scratch file that merely sorts last.
func TestBenchcmpHistoryIgnoresScratchOutput(t *testing.T) {
	dir := t.TempDir()
	writeHistory(t, dir, map[string]*benchReport{
		"2026-08-01": historyReport(400, 800),
		"2026-08-02": historyReport(480, 800),
		"sim":        historyReport(300, 800),
	})
	var out strings.Builder
	err := benchcmpHistory(&out, dir, 10)
	if err == nil || !strings.Contains(err.Error(), "steady-state regression: 2026-08-02") {
		t.Fatalf("gate verdict = %v, want the 2026-08-02 regression", err)
	}
	if !strings.Contains(out.String(), "(2 snapshots,") {
		t.Errorf("dashboard did not walk exactly the two dated snapshots:\n%s", out.String())
	}
}

// TestBenchcmpHistoryCommittedSnapshots runs the dashboard over the committed
// dated snapshots. The four older ones were written while the bench report
// still carried an intra-run scaling section, which the reader now ignores:
// every snapshot must still render. On those four the gate keeps its
// verdict — the newest, 2026-10-17c, sits 47.5% above the best, so a 10%
// gate fails and a disabled gate passes. With the 2026-10-19 snapshot the
// newest reads 528 ns/cycle, 10.2% above 2026-10-17, so the 10% gate still
// fails. Later snapshots may be committed beside these five; the test reads
// only the ones it names.
func TestBenchcmpHistoryCommittedSnapshots(t *testing.T) {
	older := []string{"BENCH_2026-08-08.json", "BENCH_2026-10-17.json", "BENCH_2026-10-17b.json", "BENCH_2026-10-17c.json"}
	const newest = "BENCH_2026-10-19.json"
	for _, name := range append(older, newest) {
		if _, err := os.Stat(filepath.Join("..", "..", name)); err != nil {
			t.Fatalf("committed snapshot %s: %v", name, err)
		}
	}
	copySnapshots := func(names []string) string {
		dir := t.TempDir()
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join("..", "..", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	for _, name := range older {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), `"intra_run_scaling"`) {
			t.Fatalf("%s no longer carries the retired section this test reads past", name)
		}
	}

	dir := copySnapshots(older)
	var out strings.Builder
	err := benchcmpHistory(&out, dir, 10)
	if err == nil || !strings.Contains(err.Error(), "steady-state regression: 2026-10-17c is 707 ns/cycle, 47.5% above the best snapshot 2026-10-17 (479 ns/cycle") {
		t.Fatalf("10%% gate verdict = %v, want the 2026-10-17c regression", err)
	}
	for _, want := range []string{
		"4 snapshots",
		"2026-08-08               940 ns/cycle, 0 allocs/cycle",
		"2026-10-17               479 ns/cycle, 0 allocs/cycle",
		"2026-10-17b              497 ns/cycle, 0 allocs/cycle",
		"2026-10-17c              707 ns/cycle, 0 allocs/cycle",
		"WarpedGates",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("dashboard missing %q:\n%s", want, out.String())
		}
	}
	if err := benchcmpHistory(io.Discard, dir, 0); err != nil {
		t.Fatalf("-regress 0 must disable the gate: %v", err)
	}

	dir = copySnapshots(append(older, newest))
	out.Reset()
	err = benchcmpHistory(&out, dir, 10)
	if err == nil || !strings.Contains(err.Error(), "steady-state regression: 2026-10-19 is 528 ns/cycle, 10.2% above the best snapshot 2026-10-17 (479 ns/cycle") {
		t.Fatalf("10%% gate over all five snapshots = %v, want the 10.2%% regression verdict", err)
	}
	for _, want := range []string{
		"5 snapshots",
		"2026-10-17c              707 ns/cycle, 0 allocs/cycle",
		"2026-10-19               528 ns/cycle, 0 allocs/cycle",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("five-snapshot dashboard missing %q:\n%s", want, out.String())
		}
	}
}

// TestBenchcmpMatrixWall: the matrix wall line sums the cells' wall times,
// so a snapshot that still carries the retired "totals" block (fast-forward
// and stepped matrix times) compares with one that does not.
func TestBenchcmpMatrixWall(t *testing.T) {
	withCell := func(rep *benchReport, wallMS float64) *benchReport {
		rep.Cells = append(rep.Cells, benchCell{
			Bench: "nw", Technique: "WarpedGates", Cycles: 50000, WallMS: wallMS, NsPerCycle: wallMS * 20,
		})
		return rep
	}
	dir := t.TempDir()
	data, err := json.Marshal(withCell(historyReport(500, 900), 30)) // 90 + 30 ms
	if err != nil {
		t.Fatal(err)
	}
	var old map[string]any
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}
	old["totals"] = map[string]float64{"fast_forward_ms": 120, "stepped_ms": 200, "speedup": 200.0 / 120}
	if data, err = json.Marshal(old); err != nil {
		t.Fatal(err)
	}
	oldPath := filepath.Join(dir, "old.json")
	if err := os.WriteFile(oldPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(withCell(historyReport(450, 600), 20)); err != nil { // 60 + 20 ms
		t.Fatal(err)
	}
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(newPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := benchcmpPair(&out, oldPath, newPath); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"matrix wall: 120 -> 80 ms (1.50x)", "compared 2 cells"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison missing %q:\n%s", want, out.String())
		}
	}
}

// TestExitCode pins the error → exit status mapping main uses.
func TestExitCode(t *testing.T) {
	if got := exitCode(nil); got != 0 {
		t.Fatalf("exitCode(nil) = %d, want 0", got)
	}
	if got := exitCode(errors.New("boom")); got != 1 {
		t.Fatalf("exitCode(plain error) = %d, want 1", got)
	}
}
