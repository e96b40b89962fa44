// Command bench is the repository's benchmark. It runs five workloads that
// drive the simulator through its public packages — the paper's matrix,
// a sweep of small cells into an on-disk store, replays of that store, long
// runs on the phase-split engine, and an open-loop load on the HTTP service
// — and prints their end-to-end metrics, or with -trace 1 their per-layer
// metrics, after checking that every output is correct.
//
//	bash bench/run.sh                                    # every workload, one child process each
//	bash bench/run.sh -workload small_cells -seed 2
//	bash bench/run.sh -workload paper_matrix -trace 1    # per-layer metrics, spans in .bench_out/trace
//	bash bench/run.sh -compare setA setB                 # verdicts between two directories of results
//
// See README.md for what each workload and metric means.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"warpedgates/internal/core"
)

// setupProbes is how many fresh processes a run starts, after its timed
// phase, to time set-up from process start; setup_s is their median.
const setupProbes = 5

// probeFlag starts a set-up probe: a process that sets one workload up as a
// run does before its first request, prints probeReady and exits.
const (
	probeFlag  = "-setup-probe"
	probeReady = "ready"
)

// defaultSeconds is the timed phase's default length, the run length
// BENCHMARK.json names.
const defaultSeconds = 18

// deadline bounds a single workload run, so that a hang fails the run
// instead of holding it; a traced run at the default length takes about a
// minute.
const deadline = 170 * time.Second

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	outDir   string
	workDir  string
	testdata string
	update   bool
	size     sizing
}

// benchSizing is the sizing a command-line run uses; only a test binary
// standing in for the benchmark's own sets another.
var benchSizing = fullSizing

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs the requested mode and returns the exit
// code: 0 when every run completed with correct outputs, 1 otherwise, 2 for
// a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: every workload, each in a child process)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the simulated configs' seeds and the service's arrival and mix draws")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1: run twice as long, alternating untraced and traced requests, and report per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_out", "trace"), "where traced runs write their spans")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_out", "results"), "directory for result JSON files")
	fs.BoolVar(&o.update, "update", false, "rewrite the committed output digests instead of checking them")
	compare := fs.Bool("compare", false, "compare two directories of result files: -compare A B")
	probe := fs.Bool(probeFlag[1:], false, "set the workload up, print \""+probeReady+"\" and exit: the process a run starts to time set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag != 0
	o.size = benchSizing
	o.testdata = defaultTestdata()
	o.workDir = filepath.Join(".bench_out", "work")
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result directories")
			return 2
		}
		if err := compareDirs(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || o.seconds <= 0 {
		fs.Usage()
		return 2
	}
	if o.workload == "" {
		return runAll(args, stdout, stderr)
	}
	if _, ok := findWorkload(o.workload); !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	if *probe {
		if err := probeSetup(o, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	res, err := execute(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
	}
	line, jerr := finalLine(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "bench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(res, err)
}

// exitCode is 0 for a run that completed with every output correct and 1
// otherwise.
func exitCode(res *result, err error) int {
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// defaultTestdata finds the committed digests from the repository root or
// from the benchmark's own directory.
func defaultTestdata() string {
	if st, err := os.Stat(filepath.Join("bench", "testdata")); err == nil && st.IsDir() {
		return filepath.Join("bench", "testdata")
	}
	return "testdata"
}

// runAll runs every workload in a child process of its own, so that memory,
// garbage-collector state and warm caches never carry from one workload to
// the next.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// execute runs one workload: set-up, the timed phase, then the set-up
// probes.
// It returns the result even when the run failed, with the failure counted.
func execute(o options, stdout, stderr io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	res := &result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		E2E: map[string]jsonValue{},
	}
	c := &checker{}
	err := measureWorkload(ctx, o, res, c, stdout, stderr)
	if err != nil {
		c.op(err)
	}
	res.Attempted, res.Failed, res.Problems = c.attempted, c.failed, c.problems
	res.Correct = c.failed == 0
	for _, p := range res.Problems {
		fmt.Fprintln(stderr, "bench: FAILED:", p)
	}
	if werr := writeResult(o.outDir, res); werr != nil && err == nil {
		err = werr
	}
	return res, err
}

func measureWorkload(ctx context.Context, o options, res *result, c *checker, stdout, stderr io.Writer) error {
	w, _ := findWorkload(o.workload)
	work, err := workDir(o.workDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{seed: o.seed, size: o.size, nproc: runtime.NumCPU(), work: work, check: c}
	seconds := o.seconds
	if o.trace {
		// Traced and untraced requests alternate, each half as long as an
		// untraced run.
		e.tr = newTracer()
		seconds *= 2
	}

	inst, err := setUp(ctx, w, e)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ps, err := inst.run(ctx, seconds, e.tr)
	runtime.ReadMemStats(&m1)
	inst.close()
	if err != nil {
		return fmt.Errorf("%s: timed phase: %w", w.name, err)
	}
	tr := e.tr
	setups, err := timeSetups(ctx, o, work, stderr)
	if err != nil {
		return fmt.Errorf("%s: timing set-up: %w", w.name, err)
	}
	u := ps.u
	lat := sorted(u.latMS)
	e2e := metrics{}
	s := sorted(setups)
	e2e.setN("setup_s", median(s), len(s))
	e2e.set("peak_rss_mb", peakRSSMB())
	res.E2E = collect(endToEnd, e2e)
	printLines(stdout, w.name, endToEnd, e2e)

	// The Go runtime's counters cover the whole timed phase.
	delivered := u.delivered()
	if ps.t != nil {
		delivered += ps.t.delivered()
	}
	u.layers.set("reports_per_s", u.throughput())
	u.layers.setN("latency_p50_ms", median(lat), len(lat))
	u.layers.set("sim.minstr_per_s", ratio(float64(u.instrs)/1e3, median(lat)))
	u.layers.set("go.allocs_per_job", ratio(float64(m1.Mallocs-m0.Mallocs), float64(delivered)))
	u.layers.set("go.gc_cycles", float64(m1.NumGC-m0.NumGC))
	u.layers.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	layers := merge(u.layers, u.model)
	if o.trace {
		t := ps.t
		c.op(sameModel(u.model, t.model))
		var derr error
		if u.digest != t.digest {
			derr = fmt.Errorf("%s: traced requests' outputs differ from untraced ones'", w.name)
		}
		c.op(derr)
		c.op(tr.checkNesting())
		traced := merge(t.layers, t.model)
		for _, name := range notFromTraced {
			traced[name] = layers[name]
		}
		layers = traced
		layers["trace.overhead_frac"] = traceOverhead(u, t)
		if err := tr.write(filepath.Join(o.traceDir, fmt.Sprintf("%s.seed%d.spans.json", w.name, o.seed))); err != nil {
			return err
		}
		res.Layers = collect(perLayer, layers)
		printLines(stdout, w.name, perLayer, layers)
	} else {
		res.Layers = collectPresent(perLayer, layers)
		printLines(stdout, w.name, presentDefs(perLayer, layers), layers)
	}
	if u.digest != "" {
		c.op(checkDigest(o.testdata, w.name, o.seed, u.digest, o.update))
	}
	return nil
}

// setUp is what a process does before it can serve a workload's first
// request: it loads the runner's cost model, which the first request would
// otherwise load, and runs the workload's own set-up.
func setUp(ctx context.Context, w workload, e *env) (instance, error) {
	core.DefaultCostModel()
	inst, err := w.setup(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return inst, nil
}

// probeSetup is a set-up probe's whole life: set the workload up, print
// probeReady, which ends the parent's timing, then tear the set-up down.
func probeSetup(o options, stdout io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	w, _ := findWorkload(o.workload)
	work, err := workDir(o.workDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{seed: o.seed, size: o.size, nproc: runtime.NumCPU(), work: work, check: &checker{}}
	inst, err := setUp(ctx, w, e)
	if err != nil {
		return err
	}
	defer inst.close()
	_, err = fmt.Fprintln(stdout, probeReady)
	return err
}

// timeSetups starts setupProbes set-up probes of the run's workload, one
// after another, each in work, and returns for each the seconds from its
// start until it was ready: process start, the Go runtime's and the
// packages' initialisation, and setUp.
func timeSetups(ctx context.Context, o options, work string, stderr io.Writer) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, exe, probeFlag, "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10))
		cmd.Dir, cmd.Stderr = work, stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0).Seconds()
		io.Copy(io.Discard, pipe) // Wait may not run before the pipe is drained
		werr := cmd.Wait()
		switch {
		case werr != nil:
			return nil, fmt.Errorf("set-up probe: %w", werr)
		case rerr != nil || strings.TrimSpace(line) != probeReady:
			return nil, fmt.Errorf("set-up probe printed %q, want %q", line, probeReady)
		}
		out = append(out, d)
	}
	return out, nil
}

// traceOverhead is the traced requests' latency over the untraced ones',
// minus one. A batch workload's requests alternate untraced, traced, traced,
// untraced, so its k-th untraced and k-th traced requests ran next to each
// other; the median of their ratios cancels the drift in host speed that a
// ratio of two medians over a few requests keeps. The service's requests
// overlap in time, so there the two halves' medians are compared.
func traceOverhead(u, t *phase) value {
	if u.perReq == 0 {
		return value{V: ratio(median(sorted(t.latMS)), median(sorted(u.latMS))) - 1, N: len(t.latMS)}
	}
	rs := make([]float64, min(len(u.latMS), len(t.latMS)))
	for k := range rs {
		rs[k] = ratio(t.latMS[k], u.latMS[k]) - 1
	}
	s := summarize(rs)
	return value{V: s.Median, N: s.N, Note: fmt.Sprintf("pairs, quartiles %.3g %.3g", s.Q1, s.Q3)}
}

// notFromTraced are the per-layer metrics a traced run does not take from
// its traced half: speed and tail latency, measured on the untraced
// requests, and the Go runtime's counters, which cover the whole phase.
// Everything derived from spans comes from the traced half.
var notFromTraced = []string{
	"reports_per_s", "latency_p50_ms",
	"sim.minstr_per_s", "serve.latency_p99_ms", "gen.late_p99_ms",
	"go.allocs_per_job", "go.gc_cycles", "go.gc_pause_ms",
}

// merge returns a new map with the entries of every m, later ones winning.
func merge(ms ...metrics) metrics {
	out := metrics{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// collectPresent is collect restricted to the metrics m holds.
func collectPresent(defs []metricDef, m metrics) map[string]jsonValue {
	return collect(presentDefs(defs, m), m)
}

func presentDefs(defs []metricDef, m metrics) []metricDef {
	var out []metricDef
	for _, d := range defs {
		if _, ok := m[d.Name]; ok {
			out = append(out, d)
		}
	}
	return out
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty, _ = strconv.ParseBool(s.Value)
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
