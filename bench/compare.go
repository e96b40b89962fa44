package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// writeResult saves a run's result as one JSON file in dir.
func writeResult(dir string, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if r.Trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s-%d.json", r.Workload, r.Seed, mode, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// readResults loads every result file in dir.
func readResults(dir string) ([]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload != "" {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, found from the
// root itself or from the benchmark's directory.
func loadSpec() (*benchmarkSpec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// verdict judges side b against side a for one metric under its bound:
// better or worse when the medians differ by more than the bound, same when
// they do not, and unresolved when either side's quartiles lie further apart
// than the bound — unless every run of b beats every run of a.
func verdict(b bound, as, bs []float64) string {
	sa, sb := summarize(as), summarize(bs)
	if sa.Median == 0 {
		return "unresolved"
	}
	sign := 1.0 // positive change = worse
	if b.Better == "higher" {
		sign = -1
	}
	change := sign * (sb.Median - sa.Median) / sa.Median
	if sa.spread() > b.Bound || sb.spread() > b.Bound {
		if allBetter(b.Better, as, bs) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case change > b.Bound:
		return "worse"
	case change < -b.Bound:
		return "better"
	}
	return "same"
}

// allBetter reports whether every value of bs beats every value of as.
func allBetter(better string, as, bs []float64) bool {
	sa, sb := sorted(as), sorted(bs)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareDirs prints, for every workload and end-to-end metric, both sides'
// medians and quartiles and the verdict under the metric's bound. Results of
// traced runs are left out: their untraced requests run interleaved with
// traced ones. It refuses results measured on different core counts, and
// fails when any verdict is worse.
func compareDirs(dirA, dirB string, w io.Writer) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readResults(dirA)
	if err != nil {
		return err
	}
	b, err := readResults(dirB)
	if err != nil {
		return err
	}
	nproc := a[0].NProc
	for _, r := range append(append([]result(nil), a...), b...) {
		if r.NProc != nproc {
			return fmt.Errorf("refusing to compare results from %d and %d cores", nproc, r.NProc)
		}
	}
	values := func(rs []result, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if r.Workload == workload && !r.Trace {
				if v, ok := r.E2E[metric]; ok {
					out = append(out, v.Value)
				}
			}
		}
		return out
	}
	var worse []string
	fmt.Fprintf(w, "%-18s %-15s %32s %32s %8s  %s\n", "workload", "metric", dirA+" median [q1 q3] n", dirB+" median [q1 q3] n", "change", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			as, bs := values(a, wl.name, m.Name), values(b, wl.name, m.Name)
			if len(as) == 0 || len(bs) == 0 {
				continue
			}
			sa, sb := summarize(as), summarize(bs)
			v := verdict(m, as, bs)
			if v == "worse" {
				worse = append(worse, wl.name+" "+m.Name)
			}
			fmt.Fprintf(w, "%-18s %-15s %32s %32s %+7.1f%%  %s (bound %g%%)\n", wl.name, m.Name,
				fmtSummary(sa), fmtSummary(sb), 100*ratio(sb.Median-sa.Median, sa.Median), v, 100*m.Bound)
		}
	}
	if len(worse) > 0 {
		return errors.New("worse beyond the bound: " + strings.Join(worse, ", "))
	}
	return nil
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
}
