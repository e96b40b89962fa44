package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// metrics with their direction and bound; TestBenchmarkJSONMatchesCatalog
// keeps the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the simulator sees that carry a bound
// in BENCHMARK.json, reported by every workload from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics. A metric of a layer a
// workload does not exercise reads 0 on that workload. The first two are the
// workload's speed as its user sees it, measured on untraced requests; they
// are not end-to-end metrics because host speed moves them by more than any
// bound they could carry. What a "report" and a "request" are on each
// workload is defined in the README.
var perLayer = []metricDef{
	{"reports_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"core.jobs", "count"},
	{"core.job_ms_p50", "ms"},
	{"core.job_ms_max", "ms"},
	{"core.busy_frac", "frac"},
	{"core.tail_ms", "ms"},
	{"core.self_share", "frac"},
	{"sim.setup_ms_p50", "ms"},
	{"sim.setup_share", "frac"},
	{"sim.run_ms_p50", "ms"},
	{"sim.run_ns_per_sm_cycle", "ns"},
	{"sim.run_ns_per_sm_cycle_p50", "ns"},
	{"sim.minstr_per_s", "Minstr/s"},
	{"store.read_ms_p50", "ms"},
	{"store.write_ms_p50", "ms"},
	{"store.rename_ms_p50", "ms"},
	{"store.commit_share", "frac"},
	{"store.read_share", "frac"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.writes", "count"},
	{"sweep.pass_ms_p50", "ms"},
	{"sweep.decode_share", "frac"},
	{"sweep.sims", "count"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_ms_p99", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p99", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.report_ms_p50", "ms"},
	{"serve.accepted", "count"},
	{"serve.duplicates", "count"},
	{"serve.rejected", "count"},
	{"serve.sims", "count"},
	{"serve.dup_hit_frac", "frac"},
	{"serve.store_commit_ms_p50", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.samples", "count"},
	{"go.allocs_per_job", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"model.cycles", "cycles"},
	{"model.warp_instrs", "count"},
	{"model.ipc_per_sm", "instr/cycle"},
	{"mem.l1_miss_rate_mean", "frac"},
	{"mem.l2_accesses", "count"},
	{"mem.dram_requests", "count"},
	{"sched.stalls_mem", "count"},
	{"sched.stalls_gate", "count"},
	{"gating.int_gated_frac", "frac"},
	{"gating.wakeups", "count"},
	{"gating.critical_wakeups", "count"},
	{"power.fig9a_wg_int_savings", "frac"},
	{"power.fig9b_wg_fp_savings", "frac"},
	{"trace.overhead_frac", "frac"},
}

// value is one measured metric. N is the sample count behind a median or
// percentile (0 for counts and ratios); Note is printed after the value.
type value struct {
	V    float64
	N    int
	Note string
}

// metrics maps metric names to values.
type metrics map[string]value

func (m metrics) set(name string, v float64) { m[name] = value{V: v} }

func (m metrics) setN(name string, v float64, n int) { m[name] = value{V: v, N: n} }

// result is the outcome of one workload run: what the final JSON line and
// the result file carry.
type result struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Correct    bool    `json:"correct"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	// Problems lists what failed, one line each.
	Problems []string `json:"problems,omitempty"`
	// E2E holds the end-to-end metrics, measured on untraced requests;
	// Layers holds every per-layer metric for a traced run, and those
	// measured without spans for an untraced one.
	E2E    map[string]jsonValue `json:"end_to_end"`
	Layers map[string]jsonValue `json:"per_layer,omitempty"`
}

// jsonValue is a metric as the result files and the final line carry it.
type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// collect picks the metrics of defs out of m, with their units. A metric
// the run did not produce reads 0.
func collect(defs []metricDef, m metrics) map[string]jsonValue {
	out := make(map[string]jsonValue, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		out[d.Name] = jsonValue{Value: finite(v.V), Unit: d.Unit, N: v.N}
	}
	return out
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printLines writes one "workload metric value unit" line per metric of
// defs, in catalog order, with the sample count and any note after it.
func printLines(w io.Writer, workload string, defs []metricDef, m metrics) {
	for _, d := range defs {
		v := m[d.Name]
		fmt.Fprintf(w, "%s %s %.6g %s", workload, d.Name, finite(v.V), d.Unit)
		if v.N > 0 {
			fmt.Fprintf(w, " n=%d", v.N)
		}
		if v.Note != "" {
			fmt.Fprintf(w, " %s", v.Note)
		}
		fmt.Fprintln(w)
	}
}

// finalLine is the last line of standard output: one JSON object with
// correct, attempted, failed and metrics, where metrics are the end-to-end
// ones for an untraced run and the per-layer ones for a traced one.
func finalLine(r *result) ([]byte, error) {
	ms := r.E2E
	if r.Trace {
		ms = r.Layers
	}
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]entry, len(ms))}
	for name, v := range ms {
		out.Metrics[name] = entry{v.Value, v.Unit}
	}
	return json.Marshal(out)
}
