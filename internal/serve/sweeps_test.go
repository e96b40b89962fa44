package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"warpedgates/internal/sim"
	"warpedgates/internal/sweep"
)

// smallSweep expands to 4 sub-second cells on the test machine: 2 benches ×
// 2 techniques at scale 0.05.
const smallSweep = `{"benches":["nw","hotspot"],"techniques":["Baseline","WarpedGates"],"sms":[2],"scales":[0.05]}`

// hugeGridSweep is about 220 KB of JSON whose grid has 18 × 6 × 20000 ×
// 20000 × 100 ≈ 4.3e12 cells: it must be rejected by size before anything
// of that size is allocated.
var hugeGridSweep = `{"seeds":` + jsonRange(0, 19999) + `,"idle_detects":` + jsonRange(0, 19999) +
	`,"break_evens":` + jsonRange(1, 100) + `}`

// jsonRange renders the integers lo..hi as a JSON array.
func jsonRange(lo, hi int) string {
	var b strings.Builder
	b.WriteByte('[')
	for v := lo; v <= hi; v++ {
		if v > lo {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteByte(']')
	return b.String()
}

// postSweep submits a sweep and returns the decoded status.
func postSweep(t *testing.T, ts *httptest.Server, body string, wantStatus int) SweepStatus {
	t.Helper()
	resp, raw := doJSON(t, ts, http.MethodPost, "/v1/sweeps", body, nil)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /v1/sweeps = %d, want %d; body: %s", resp.StatusCode, wantStatus, raw)
	}
	var st SweepStatus
	if err := json.Unmarshal([]byte(raw), &st); err != nil {
		t.Fatalf("sweep response %q: %v", raw, err)
	}
	return st
}

// waitSweepTerminal polls a sweep until every cell is terminal.
func waitSweepTerminal(t *testing.T, ts *httptest.Server, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, raw := doJSON(t, ts, http.MethodGet, "/v1/sweeps/"+id, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll sweep %s: status %d, body %s", id, resp.StatusCode, raw)
		}
		var st SweepStatus
		if err := json.Unmarshal([]byte(raw), &st); err != nil {
			t.Fatalf("sweep poll response %q: %v", raw, err)
		}
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still %s after 60s: %+v", id, st.State, st.Counts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepLifecycle walks a sweep end to end: submit, aggregate status,
// every cell report fetchable, and — the dedup contract at the API boundary —
// resubmitting the identical grid lands on the same content-addressed sweep
// with zero new simulations.
func TestSweepLifecycle(t *testing.T) {
	s, ts := newTestServer(t, nil)
	st := postSweep(t, ts, smallSweep, http.StatusAccepted)
	if st.Cells != 4 {
		t.Fatalf("sweep has %d cells, want 4", st.Cells)
	}
	st = waitSweepTerminal(t, ts, st.ID)
	if st.State != StateDone || st.Counts[StateDone] != 4 {
		t.Fatalf("sweep ended %s with counts %+v, want done x4", st.State, st.Counts)
	}
	for _, cell := range st.CellStatus {
		if cell.Report == "" {
			t.Fatalf("done cell %s has no report link", cell.ID)
		}
		resp, body := doJSON(t, ts, http.MethodGet, cell.Report, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, body %s", cell.Report, resp.StatusCode, body)
		}
	}
	if n := s.Simulations(); n != 4 {
		t.Fatalf("sweep ran %d simulations, want 4", n)
	}

	again := postSweep(t, ts, smallSweep, http.StatusOK)
	if again.ID != st.ID {
		t.Fatalf("resubmitted sweep got id %s, want %s", again.ID, st.ID)
	}
	if again.State != StateDone {
		t.Fatalf("resubmitted sweep state %s, want done", again.State)
	}
	if n := s.Simulations(); n != 4 {
		t.Fatalf("resubmission ran %d simulations total, want 4", n)
	}
}

// TestSweepCollapsesOntoExistingJob pins the cell-level dedup: a sweep whose
// only cell matches an already-finished job reuses that job instead of
// re-running it.
func TestSweepCollapsesOntoExistingJob(t *testing.T) {
	s, ts := newTestServer(t, nil)
	job := submitAndWait(t, ts, smallJob)
	if job.State != StateDone {
		t.Fatalf("seed job ended %s (%s)", job.State, job.Error)
	}
	st := postSweep(t, ts, `{"benches":["hotspot"],"techniques":["WarpedGates"],"sms":[2],"scales":[0.05]}`,
		http.StatusAccepted)
	if st.Cells != 1 {
		t.Fatalf("sweep has %d cells, want 1", st.Cells)
	}
	if st.CellStatus[0].ID != job.ID {
		t.Fatalf("sweep cell id %s, want the existing job %s", st.CellStatus[0].ID, job.ID)
	}
	st = waitSweepTerminal(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("sweep ended %s", st.State)
	}
	if n := s.Simulations(); n != 1 {
		t.Fatalf("%d simulations after job+sweep of the same cell, want 1", n)
	}
}

// TestSweepValidationTable pins the sweep endpoint's 4xx/5xx contracts.
func TestSweepValidationTable(t *testing.T) {
	cases := []struct {
		name       string
		opts       func(*Options)
		prep       func(t *testing.T, s *Server, ts *httptest.Server)
		method     string
		path       string
		body       string
		wantStatus int
		wantBody   []string
	}{
		{
			name:       "unknown benchmark is 400",
			method:     http.MethodPost,
			path:       "/v1/sweeps",
			body:       `{"benches":["nosuch"]}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"unknown benchmark", "nosuch"},
		},
		{
			name:       "invalid shard is 400",
			method:     http.MethodPost,
			path:       "/v1/sweeps",
			body:       `{"benches":["nw"],"shard_index":3,"shard_count":2}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"invalid shard"},
		},
		{
			name:       "unknown request field is 400 not silently ignored",
			method:     http.MethodPost,
			path:       "/v1/sweeps",
			body:       `{"benches":["nw"],"max_cycles":7}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"max_cycles"},
		},
		{
			name:       "oversized sweep is 400 with a shard hint",
			opts:       func(o *Options) { o.MaxSweepCells = 2 },
			method:     http.MethodPost,
			path:       "/v1/sweeps",
			body:       smallSweep,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"4 cells", "limit is 2", "shard"},
		},
		{
			name:       "scale over the bound is 400",
			method:     http.MethodPost,
			path:       "/v1/sweeps",
			body:       `{"benches":["nw"],"scales":[0.1,1e18]}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"sweep: scale must be in (0, 10000], got 1e+18"},
		},
		{
			name:       "grid too large to expand is 400",
			method:     http.MethodPost,
			path:       "/v1/sweeps",
			body:       hugeGridSweep,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"more than", "cells"},
		},
		{
			name:       "trailing data after the body is 400",
			method:     http.MethodPost,
			path:       "/v1/sweeps",
			body:       smallSweep + `{}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"trailing data"},
		},
		{
			name:       "oversized body is 413",
			method:     http.MethodPost,
			path:       "/v1/sweeps",
			body:       padBody(smallSweep),
			wantStatus: http.StatusRequestEntityTooLarge,
			wantBody:   []string{"request body exceeds"},
		},
		{
			name:       "invalid sampling combo is 400",
			method:     http.MethodPost,
			path:       "/v1/sweeps",
			body:       `{"benches":["nw"],"techniques":["Baseline"],"sample_detail":500,"sample_period":500}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"SamplePeriod"},
		},
		{
			name:       "SM count over the bound is 400",
			method:     http.MethodPost,
			path:       "/v1/sweeps",
			body:       `{"benches":["nw"],"techniques":["Baseline"],"sms":[2,16777216]}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"config: NumSMs must be in [1,128], got 16777216"},
		},
		{
			name: "draining submit is 503",
			prep: func(t *testing.T, s *Server, ts *httptest.Server) {
				s.Close()
			},
			method:     http.MethodPost,
			path:       "/v1/sweeps",
			body:       smallSweep,
			wantStatus: http.StatusServiceUnavailable,
			wantBody:   []string{"draining"},
		},
		{
			name:       "unknown sweep is 404",
			method:     http.MethodGet,
			path:       "/v1/sweeps/" + unknownID,
			wantStatus: http.StatusNotFound,
			wantBody:   []string{"no sweep"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.opts)
			if tc.prep != nil {
				tc.prep(t, s, ts)
			}
			resp, body := doJSON(t, ts, tc.method, tc.path, tc.body, nil)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("%s %s = %d, want %d; body: %s", tc.method, tc.path, resp.StatusCode, tc.wantStatus, body)
			}
			for _, want := range tc.wantBody {
				if !strings.Contains(body, want) {
					t.Errorf("body missing %q:\n%s", want, body)
				}
			}
		})
	}
}

// TestSampledJobAndSweep pins the sampled path through the API: sampling
// parameters key distinct canonical jobs, and the served report carries the
// sampling block.
func TestSampledJobAndSweep(t *testing.T) {
	_, ts := newTestServer(t, nil)
	st := submitAndWait(t, ts, `{"bench":"hotspot","technique":"WarpedGates","sms":2,"scale":0.05,"sample_detail":500,"sample_period":2500}`)
	if st.State != StateDone {
		t.Fatalf("sampled job ended %s (%s)", st.State, st.Error)
	}
	if !strings.Contains(st.Key, "sample=500/2500") {
		t.Fatalf("sampled job key %q does not carry the sampling axis", st.Key)
	}

	sw := postSweep(t, ts, `{"benches":["hotspot"],"techniques":["WarpedGates"],"sms":[2],"scales":[0.05],"sample_detail":500,"sample_period":2500}`,
		http.StatusAccepted)
	sw = waitSweepTerminal(t, ts, sw.ID)
	if sw.State != StateDone {
		t.Fatalf("sampled sweep ended %s: %+v", sw.State, sw.Counts)
	}
	// The sweep's one cell is the sampled job submitted above — same key,
	// same content address — and its report decodes with the sampling block.
	cell := sw.CellStatus[0]
	if cell.ID != st.ID {
		t.Fatalf("sampled sweep cell %s, want the sampled job %s", cell.ID, st.ID)
	}
	resp, body := doJSON(t, ts, http.MethodGet, cell.Report, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", cell.Report, resp.StatusCode)
	}
	rep, err := sim.DecodeReport([]byte(body))
	if err != nil {
		t.Fatalf("decoding sampled report: %v", err)
	}
	if !rep.Sampled {
		t.Fatal("sampled cell's report has Sampled unset")
	}
}

// TestSweepDrainCancelsPendingCells is the drain-safety test for the sweep
// feeder: a sweep bigger than the admission queue blocks its feeder; closing
// the server must cancel the blocked and queued cells (never panic on a
// closed queue) and leave the sweep terminal.
func TestSweepDrainCancelsPendingCells(t *testing.T) {
	s, ts := newTestServer(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 1
	})
	// Four scale-30 cells: minutes each uncanceled, so the lone worker pins
	// one, one sits in the depth-1 queue, and the feeder blocks on the rest.
	st := postSweep(t, ts, `{"benches":["hotspot","srad","backprop","nw"],"techniques":["WarpedGates"],"sms":[2],"scales":[30]}`,
		http.StatusAccepted)
	if st.Cells != 4 {
		t.Fatalf("sweep has %d cells, want 4", st.Cells)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur := postSweep(t, ts, `{"benches":["hotspot","srad","backprop","nw"],"techniques":["WarpedGates"],"sms":[2],"scales":[30]}`,
			http.StatusOK)
		if cur.Counts[StateRunning] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cell reached running: %+v", cur.Counts)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
	final := waitSweepTerminal(t, ts, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("drained sweep ended %s with counts %+v, want canceled", final.State, final.Counts)
	}
	if got := final.Counts[StateCanceled]; got != 4 {
		t.Fatalf("drained sweep canceled %d of 4 cells: %+v", got, final.Counts)
	}
}

// TestRequestLimitFitsLargestSweep checks maxRequestBytes against the largest
// sweep a default server admits: MaxSweepCells cells on the seed axis, each a
// full-width 20-digit uint64, with every other field set. Its body must
// decode and build, and stay under an eighth of the limit.
func TestRequestLimitFitsLargestSweep(t *testing.T) {
	s, _ := newTestServer(t, nil)
	req := SweepRequest{
		Spec: sweep.Spec{
			Benches:      []string{"backprop"},
			Techniques:   []string{"WarpedGates"},
			SMs:          []int{15},
			Scales:       []float64{0.12345678901234567},
			IdleDetects:  []int{5},
			BreakEvens:   []int{14},
			WakeupDelays: []int{3},
			SampleDetail: 1000,
			SamplePeriod: 5000,
		},
		ShardIndex: 0,
		ShardCount: 1,
		DeadlineMS: math.MaxInt64,
	}
	for i := range s.opts.MaxSweepCells {
		req.Seeds = append(req.Seeds, math.MaxUint64-uint64(i))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var got SweepRequest
	if code, err := decodeRequest(nil, io.NopCloser(bytes.NewReader(body)), &got); err != nil {
		t.Fatalf("largest sweep body rejected with %d: %v", code, err)
	}
	_, jobs, err := s.buildSweep(&got)
	if err != nil {
		t.Fatalf("largest sweep does not build: %v", err)
	}
	if len(jobs) != s.opts.MaxSweepCells {
		t.Fatalf("largest sweep built %d cells, want %d", len(jobs), s.opts.MaxSweepCells)
	}
	if 8*len(body) > maxRequestBytes {
		t.Fatalf("largest sweep body is %d bytes, over an eighth of the %d-byte limit", len(body), maxRequestBytes)
	}
	t.Logf("largest sweep body: %d bytes of %d", len(body), maxRequestBytes)
}
