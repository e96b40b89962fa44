package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"warpedgates/internal/store"
)

// tinyOptions runs a workload at the test-only sizing, with every file the
// run writes under dir.
func tinyOptions(dir, workload string, trace bool) options {
	return options{
		workload: workload, seed: 1, seconds: 0.4, trace: trace,
		traceDir: filepath.Join(dir, "trace"), outDir: filepath.Join(dir, "results"),
		workDir: filepath.Join(dir, "work"), testdata: filepath.Join(dir, "testdata"),
		size: tinySizing,
	}
}

// TestMain lets the test binary stand in for the benchmark's own: a run
// times set-up by starting its executable with probeFlag, and under go test
// that executable is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == probeFlag {
		benchSizing = tinySizing
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs every workload at the tiny sizing, traced, and
// checks that its outputs pass every check, that it reports every metric
// the catalog names, and that a second run reproduces the digest the first
// one wrote.
func TestWorkloadsSmoke(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "testdata"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := tinyOptions(dir, w.name, true)
			o.update = true
			res, err := execute(o, io.Discard, io.Discard)
			if err != nil || !res.Correct || res.Attempted == 0 {
				t.Fatalf("traced run: err=%v correct=%v attempted=%d problems=%v", err, res.Correct, res.Attempted, res.Problems)
			}
			for _, d := range endToEnd {
				if v, ok := res.E2E[d.Name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", d.Name, v)
				}
			}
			if len(res.Layers) != len(perLayer) {
				t.Errorf("traced run reports %d per-layer metrics, want %d", len(res.Layers), len(perLayer))
			}
			if v := res.Layers["trace.overhead_frac"]; v.Value == 0 {
				t.Error("trace.overhead_frac was not measured")
			}
			if _, err := os.Stat(filepath.Join(dir, "trace", w.name+".seed1.spans.json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
			line, err := finalLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var final struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(line, &final); err != nil || len(final.Metrics) != len(perLayer) {
				t.Errorf("final line %s: %v, %d metrics, want %d", line, err, len(final.Metrics), len(perLayer))
			}

			again, err := execute(tinyOptions(dir, w.name, false), io.Discard, io.Discard)
			if err != nil || !again.Correct {
				t.Fatalf("untraced rerun against the written digest: err=%v problems=%v", err, again.Problems)
			}
			if len(again.E2E) != len(endToEnd) {
				t.Errorf("untraced run reports %d end-to-end metrics, want %d", len(again.E2E), len(endToEnd))
			}
			if n := again.E2E["setup_s"].N; n != setupProbes {
				t.Errorf("setup_s rests on %d set-up probes, want %d", n, setupProbes)
			}
		})
	}
}

// TestCorruptDigestFails checks that a run whose outputs differ from the
// committed digest fails and exits non-zero.
func TestCorruptDigestFails(t *testing.T) {
	dir := t.TempDir()
	o := tinyOptions(dir, "large_runs", false)
	if err := os.MkdirAll(o.testdata, 0o755); err != nil {
		t.Fatal(err)
	}
	o.update = true
	if res, err := execute(o, io.Discard, io.Discard); err != nil || !res.Correct {
		t.Fatalf("writing the digest: err=%v problems=%v", err, res.Problems)
	}
	path := digestPath(o.testdata, "large_runs", 1)
	if err := os.WriteFile(path, []byte(strings.Repeat("0", 64)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o.update = false
	res, err := execute(o, io.Discard, io.Discard)
	if res.Correct || res.Failed == 0 || exitCode(res, err) == 0 {
		t.Fatalf("run against a corrupted digest: correct=%v failed=%d exit=%d, want a failure", res.Correct, res.Failed, exitCode(res, err))
	}
}

// TestCommittedDigests checks that every workload with a digest has one
// committed for seed 1.
func TestCommittedDigests(t *testing.T) {
	for _, w := range []string{"paper_matrix", "small_cells", "store_replay", "large_runs"} {
		data, err := os.ReadFile(digestPath("testdata", w, 1))
		if err != nil || len(strings.TrimSpace(string(data))) != 64 {
			t.Errorf("%s: committed digest unreadable or malformed: %v %q", w, err, data)
		}
	}
}

// TestTimingFSIsTransparent checks that a store on the timing filesystem
// writes, reads and verifies exactly the bytes a store on the real one does.
func TestTimingFSIsTransparent(t *testing.T) {
	tr := newTracer()
	plainDir, timedDir := t.TempDir(), t.TempDir()
	plain, err := store.OpenFS(store.OSFS{}, plainDir, store.DefaultRetry())
	if err != nil {
		t.Fatal(err)
	}
	timed, err := store.OpenFS(tr.fs(store.OSFS{}), timedDir, store.DefaultRetry())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"version":1,"report":{"Cycles":42}}`)
	for _, s := range []*store.Store{plain, timed} {
		if err := s.Put("wg-job key", payload); err != nil {
			t.Fatal(err)
		}
	}
	rel := filepath.Join("objects", store.HashKey("wg-job key")[:2], store.HashKey("wg-job key")+".rep")
	a, errA := os.ReadFile(filepath.Join(plainDir, rel))
	b, errB := os.ReadFile(filepath.Join(timedDir, rel))
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("committed entries differ: %v %v\n%q\n%q", errA, errB, a, b)
	}
	got, ok, err := timed.Get("wg-job key")
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get through the timing FS = %q, %v, %v", got, ok, err)
	}
	if got, ok, err := timed.GetByHash(store.HashKey("wg-job key")); err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("GetByHash through the timing FS = %q, %v, %v", got, ok, err)
	}
	if v, err := timed.Verify(); err != nil || v.OK != 1 || len(v.Quarantined) != 0 {
		t.Fatalf("Verify through the timing FS = %+v, %v", v, err)
	}
	want := map[spanName]bool{spanMkdir: true, spanWrite: true, spanRename: true, spanRead: true}
	for _, s := range tr.spans {
		delete(want, s.name)
		if s.name != spanMkdir && s.job != hashOf(store.HashKey("wg-job key")) {
			t.Errorf("%s span carries job %x, want the entry's hash", s.name, s.job)
		}
	}
	if len(want) > 0 {
		t.Errorf("no span recorded for %v", want)
	}
}

func TestPlan(t *testing.T) {
	size := fullSizing
	a, b := plan(7, size, 18), plan(7, size, 18)
	measured, repeats := 0, 0
	for i := range a {
		if a[i].at != b[i].at || a[i].req.Bench != b[i].req.Bench || *a[i].req.Seed != *b[i].req.Seed {
			t.Fatalf("plan is not a function of its seed: arrival %d differs", i)
		}
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatalf("arrival %d is scheduled before arrival %d", i, i-1)
		}
		if a[i].measured {
			measured++
		}
		if a[i].repeat {
			repeats++
		}
	}
	if want := int(size.serveRate * (18 - size.serveWarmup)); measured != want {
		t.Errorf("measured arrivals = %d, want %d", measured, want)
	}
	if want := int(dupShare*float64(len(a)-1) + 0.5); repeats != want || a[0].repeat {
		t.Errorf("repeats = %d (first repeats: %v), want %d", repeats, a[0].repeat, want)
	}
	if c := plan(8, size, 18); *c[0].req.Seed == *a[0].req.Seed {
		t.Error("another seed drew the same first job")
	}
}

// TestServiceThroughputPerHalf checks that each half of a traced service run
// reports the rate of the whole open loop, not its share of it.
func TestServiceThroughputPerHalf(t *testing.T) {
	const n = 100
	start := time.Now()
	tr := newTracer()
	ps, whole := newPhases(tr), newPhase()
	arrivals := make([]arrival, n)
	recs := make([]record, n)
	half, all := make([]*phase, n), make([]*phase, n)
	for i := range recs {
		due := start.Add(time.Duration(i) * 10 * time.Millisecond)
		recs[i] = record{sched: due, sent: due, submitted: due, running: due, done: due, fetched: due.Add(5 * time.Millisecond), status: http.StatusAccepted}
		arrivals[i].measured = true
		half[i], _ = ps.pick(tr, i)
		all[i] = whole
	}
	s := &service{}
	s.measure(whole, arrivals, all, recs, start)
	want := whole.throughput()
	if want < 95 || want > 105 {
		t.Fatalf("whole run: %.1f reports/s, want about 100", want)
	}
	for _, p := range []*phase{ps.u, ps.t} {
		s.measure(p, arrivals, half, recs, start)
		if got := p.throughput(); math.Abs(got-want) > 0.01*want {
			t.Errorf("half of a traced run: %.1f reports/s, want the whole run's %.1f", got, want)
		}
	}
}

func TestTraceOverhead(t *testing.T) {
	for _, tc := range []struct {
		name string
		u, t *phase
		want float64
		n    int
	}{
		// Pairs: 4%, 5%, 0%; the traced request without a partner is left out.
		{"batch pairs", &phase{perReq: 108, latMS: []float64{100, 200, 150}}, &phase{perReq: 108, latMS: []float64{104, 210, 150, 999}}, 0.04, 3},
		{"service medians", &phase{latMS: []float64{30, 10, 20}}, &phase{latMS: []float64{33, 22, 11}}, 0.1, 3},
	} {
		got := traceOverhead(tc.u, tc.t)
		if math.Abs(got.V-tc.want) > 1e-9 || got.N != tc.n {
			t.Errorf("%s: overhead %g over %d, want %g over %d", tc.name, got.V, got.N, tc.want, tc.n)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := bound{Name: "reports_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, tc := range []struct {
		name   string
		b      bound
		as, bs []float64
		want   string
	}{
		{"same", lower, steady, []float64{103, 104, 102, 103, 103}, "same"},
		{"slower", lower, steady, []float64{115, 116, 114, 115, 115}, "worse"},
		{"faster", lower, steady, []float64{85, 86, 84, 85, 85}, "better"},
		{"higher is better", higher, steady, []float64{85, 86, 84, 85, 85}, "worse"},
		{"noisy", lower, steady, []float64{80, 120, 100, 70, 130}, "unresolved"},
		{"noisy but every run better", lower, []float64{100, 130, 160, 190, 220}, []float64{50, 60, 70, 80, 90}, "better"},
	} {
		if got := verdict(tc.b, tc.as, tc.bs); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareDirs(t *testing.T) {
	write := func(dir string, nproc int, rss float64) {
		t.Helper()
		for i := 0; i < 3; i++ {
			r := result{Workload: "paper_matrix", Seed: uint64(i), NProc: nproc, Correct: true, E2E: map[string]jsonValue{
				"peak_rss_mb": {Value: rss + float64(i)/10, Unit: "MB"},
			}}
			data, _ := json.Marshal(r)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("r%d.json", i)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	write(a, 2, 20)
	write(b, 2, 30)
	write(c, 4, 20)
	var out bytes.Buffer
	err := compareDirs(a, b, &out)
	if err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("a matrix using 50%% more memory: err=%v\n%s", err, out.String())
	}
	if err := compareDirs(a, a, io.Discard); err != nil {
		t.Errorf("comparing a set with itself: %v", err)
	}
	if err := compareDirs(a, c, io.Discard); err == nil || !strings.Contains(err.Error(), "cores") {
		t.Errorf("results from 2 and 4 cores: err=%v, want a refusal", err)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics and
// workloads the program reports in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer %s: better %q", m.Name, m.Better)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default length is %d", spec.RunSeconds, defaultSeconds)
	}
}
