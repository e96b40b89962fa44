package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
)

// testOptions is the shared fast-test configuration: the small 2-SM machine,
// quotas disabled (cases that exercise them opt back in), and a queue deep
// enough that admission never interferes with unrelated cases.
func testOptions() Options {
	return Options{
		Base:                config.Small(),
		Workers:             2,
		QueueDepth:          16,
		QuotaRate:           -1,
		QuotaBurst:          -1,
		ProgressEveryCycles: 500,
	}
}

// newTestServer builds a server plus its loopback HTTP front; both are torn
// down with the test.
func newTestServer(t *testing.T, mutate func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := testOptions()
	if mutate != nil {
		mutate(&opts)
	}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// smallJob is a sub-second benchmark × technique request on the test machine.
const smallJob = `{"bench":"hotspot","technique":"WarpedGates","sms":2,"scale":0.05}`

// padBody pads a valid JSON object body past maxRequestBytes with
// whitespace after its opening brace, so only the size makes it illegal.
func padBody(body string) string {
	return "{" + strings.Repeat(" ", maxRequestBytes) + body[1:]
}

// doJSON issues one request and returns the response with its body read.
func doJSON(t *testing.T, ts *httptest.Server, method, path, body string, header map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s %s body: %v", method, path, err)
	}
	return resp, string(raw)
}

// submitAndWait submits a job and polls it to a terminal state, returning the
// final status.
func submitAndWait(t *testing.T, ts *httptest.Server, body string) JobStatus {
	t.Helper()
	resp, raw := doJSON(t, ts, http.MethodPost, "/v1/jobs", body, nil)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(raw), &st); err != nil {
		t.Fatalf("submit response %q: %v", raw, err)
	}
	return waitTerminal(t, ts, st.ID)
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, raw := doJSON(t, ts, http.MethodGet, "/v1/jobs/"+id, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d, body %s", id, resp.StatusCode, raw)
		}
		var st JobStatus
		if err := json.Unmarshal([]byte(raw), &st); err != nil {
			t.Fatalf("poll response %q: %v", raw, err)
		}
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitState polls a job until it reaches (or passes through to a state at
// least as far as) the wanted transient state.
func waitState(t *testing.T, ts *httptest.Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, raw := doJSON(t, ts, http.MethodGet, "/v1/jobs/"+id, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d, body %s", id, resp.StatusCode, raw)
		}
		var st JobStatus
		if err := json.Unmarshal([]byte(raw), &st); err != nil {
			t.Fatalf("poll response %q: %v", raw, err)
		}
		if st.State == want || st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s waiting for %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// unknownID is a well-formed content address no job hashes to.
var unknownID = strings.Repeat("ab", 32)

// TestAPITable is the kgateway-style table: one row per contract the HTTP
// surface promises — submit, duplicate-submit collapse, validation 400s,
// unknown 404s, quota 429 and drain 503. Every row gets a fresh server so
// rows cannot contaminate each other, and the whole table runs under -race
// in CI (make serve-test).
func TestAPITable(t *testing.T) {
	cases := []struct {
		name string
		// opts mutates the per-case server options; prep runs before the
		// request under test.
		opts func(*Options)
		prep func(t *testing.T, s *Server, ts *httptest.Server)

		method, path string
		header       map[string]string
		body         string

		wantStatus  int
		wantBody    []string // substrings the response body must contain
		wantHeaders map[string]string
		check       func(t *testing.T, s *Server)
	}{
		{
			name:       "submit accepted",
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       smallJob,
			wantStatus: http.StatusAccepted,
			wantBody:   []string{`"key": "wg-job v2 bench=hotspot`, `"bench": "hotspot"`, `"technique": "WarpedGates"`},
		},
		{
			name: "duplicate submit collapses onto one simulation",
			prep: func(t *testing.T, s *Server, ts *httptest.Server) {
				st := submitAndWait(t, ts, smallJob)
				if st.State != StateDone {
					t.Fatalf("first submission ended %s (%s)", st.State, st.Error)
				}
			},
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       smallJob,
			wantStatus: http.StatusOK,
			wantBody:   []string{`"state": "done"`, `"report": "/v1/reports/`},
			check: func(t *testing.T, s *Server) {
				if n := s.Simulations(); n != 1 {
					t.Fatalf("duplicate submission ran %d simulations, want 1", n)
				}
			},
		},
		{
			name:       "unknown benchmark is 400",
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       `{"bench":"nosuch","technique":"WarpedGates"}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"unknown benchmark", "nosuch"},
		},
		{
			name:       "unknown technique is 400",
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       `{"bench":"hotspot","technique":"Overclock"}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"unknown technique", "Overclock"},
		},
		{
			name:       "invalid machine config is 400",
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       `{"bench":"hotspot","technique":"Baseline","break_even":-1}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"config: BreakEven must be positive"},
		},
		{
			name:       "SM count over the bound is 400",
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       `{"bench":"hotspot","technique":"Baseline","sms":16777216}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"config: NumSMs must be in [1,128], got 16777216"},
		},
		{
			name:       "negative scale is 400",
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       `{"bench":"hotspot","technique":"Baseline","scale":-2}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"scale must be a positive finite number"},
		},
		{
			name:       "scale over the bound is 400",
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       `{"bench":"hotspot","technique":"Baseline","scale":1e18}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"scale must be a positive finite number at most 10000, got 1e+18"},
		},
		{
			name:       "unknown request field is 400 not silently ignored",
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       `{"bench":"hotspot","technique":"Baseline","max_cycles":7}`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"max_cycles"},
		},
		{
			name:       "malformed JSON is 400",
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       `{"bench":`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"malformed request body"},
		},
		{
			name:       "trailing data after the body is 400",
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       smallJob + ` junk`,
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"trailing data"},
		},
		{
			name:       "trailing whitespace is legal",
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       smallJob + "\n\t ",
			wantStatus: http.StatusAccepted,
		},
		{
			name:       "oversized body is 413",
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       padBody(smallJob),
			wantStatus: http.StatusRequestEntityTooLarge,
			wantBody:   []string{"request body exceeds"},
		},
		{
			name:       "unknown job is 404",
			method:     http.MethodGet,
			path:       "/v1/jobs/" + unknownID,
			wantStatus: http.StatusNotFound,
			wantBody:   []string{"no job"},
		},
		{
			name:       "unknown report is 404",
			method:     http.MethodGet,
			path:       "/v1/reports/" + unknownID,
			wantStatus: http.StatusNotFound,
			wantBody:   []string{"no report"},
		},
		{
			name:       "malformed report id is 400",
			method:     http.MethodGet,
			path:       "/v1/reports/not-a-hash",
			wantStatus: http.StatusBadRequest,
			wantBody:   []string{"malformed report id"},
		},
		{
			name: "quota exhaustion is 429 with Retry-After",
			opts: func(o *Options) { o.QuotaRate = 0.01; o.QuotaBurst = 1 },
			prep: func(t *testing.T, s *Server, ts *httptest.Server) {
				resp, raw := doJSON(t, ts, http.MethodPost, "/v1/jobs", smallJob, nil)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("burst submission: status %d, body %s", resp.StatusCode, raw)
				}
			},
			method:      http.MethodPost,
			path:        "/v1/jobs",
			body:        smallJob,
			wantStatus:  http.StatusTooManyRequests,
			wantBody:    []string{"client quota exceeded"},
			wantHeaders: map[string]string{"Retry-After": ""},
		},
		{
			name: "admission queue full is 429 with Retry-After",
			opts: func(o *Options) { o.Workers = 1; o.QueueDepth = 1 },
			prep: func(t *testing.T, s *Server, ts *httptest.Server) {
				// One slow job occupies the lone worker, a second fills the
				// depth-1 queue. Waiting for the first to reach running makes
				// the queue state deterministic: the worker is busy for the
				// rest of the test (scale-30 runs take minutes uncanceled; the
				// cleanup Close cancels them), so the second job stays queued.
				slow := `{"bench":"hotspot","technique":"WarpedGates","sms":2,"scale":30}`
				resp, raw := doJSON(t, ts, http.MethodPost, "/v1/jobs", slow, nil)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("running-filler submission: status %d, body %s", resp.StatusCode, raw)
				}
				var st JobStatus
				if err := json.Unmarshal([]byte(raw), &st); err != nil {
					t.Fatalf("submit response %q: %v", raw, err)
				}
				waitState(t, ts, st.ID, StateRunning)
				resp, raw = doJSON(t, ts, http.MethodPost, "/v1/jobs", `{"bench":"srad","technique":"WarpedGates","sms":2,"scale":30}`, nil)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("queued-filler submission: status %d, body %s", resp.StatusCode, raw)
				}
			},
			method:      http.MethodPost,
			path:        "/v1/jobs",
			body:        `{"bench":"backprop","technique":"WarpedGates","sms":2,"scale":30}`,
			wantStatus:  http.StatusTooManyRequests,
			wantBody:    []string{"admission queue full"},
			wantHeaders: map[string]string{"Retry-After": "1"},
		},
		{
			name: "draining submit is 503",
			prep: func(t *testing.T, s *Server, ts *httptest.Server) {
				s.Close()
			},
			method:     http.MethodPost,
			path:       "/v1/jobs",
			body:       smallJob,
			wantStatus: http.StatusServiceUnavailable,
			wantBody:   []string{"draining"},
		},
		{
			name: "draining healthz is 503",
			prep: func(t *testing.T, s *Server, ts *httptest.Server) {
				s.Close()
			},
			method:     http.MethodGet,
			path:       "/v1/healthz",
			wantStatus: http.StatusServiceUnavailable,
			wantBody:   []string{"draining"},
		},
		{
			name:       "healthz ok",
			method:     http.MethodGet,
			path:       "/v1/healthz",
			wantStatus: http.StatusOK,
			wantBody:   []string{`"ok"`},
		},
		{
			name:       "statusz reports counters",
			method:     http.MethodGet,
			path:       "/v1/statusz",
			wantStatus: http.StatusOK,
			wantBody:   []string{`"queue_cap": 16`, `"simulations"`, `"draining": false`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.opts)
			if tc.prep != nil {
				tc.prep(t, s, ts)
			}
			resp, body := doJSON(t, ts, tc.method, tc.path, tc.body, tc.header)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("%s %s = %d, want %d; body: %s", tc.method, tc.path, resp.StatusCode, tc.wantStatus, body)
			}
			for _, want := range tc.wantBody {
				if !strings.Contains(body, want) {
					t.Errorf("body missing %q:\n%s", want, body)
				}
			}
			for k, want := range tc.wantHeaders {
				got := resp.Header.Get(k)
				if got == "" {
					t.Errorf("missing %s header", k)
				} else if want != "" && got != want {
					t.Errorf("%s header = %q, want %q", k, got, want)
				}
			}
			if tc.check != nil {
				tc.check(t, s)
			}
		})
	}
}

// TestQuotaRefill pins the token-bucket math: a drained bucket refills at
// the configured rate, and the Retry-After estimate matches the deficit.
func TestQuotaRefill(t *testing.T) {
	q := newQuotas(2, 1) // 2 tokens/s, burst 1
	t0 := time.Unix(1000, 0)
	if ok, _ := q.take("c", t0); !ok {
		t.Fatal("fresh bucket denied its burst")
	}
	ok, wait := q.take("c", t0)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if wait <= 0 || wait > 500*time.Millisecond {
		t.Fatalf("wait = %v, want (0, 500ms]", wait)
	}
	if ok, _ := q.take("c", t0.Add(time.Second)); !ok {
		t.Fatal("bucket did not refill after a full second")
	}
	if q.clients() != 1 {
		t.Fatalf("clients = %d, want 1", q.clients())
	}
}

// TestStatuszJobCounts walks one job through to done and checks the state
// histogram /v1/statusz reports.
func TestStatuszJobCounts(t *testing.T) {
	_, ts := newTestServer(t, nil)
	st := submitAndWait(t, ts, smallJob)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	resp, body := doJSON(t, ts, http.MethodGet, "/v1/statusz", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz: %d", resp.StatusCode)
	}
	var z Statusz
	if err := json.Unmarshal([]byte(body), &z); err != nil {
		t.Fatalf("statusz body %q: %v", body, err)
	}
	if z.Jobs[StateDone] != 1 {
		t.Fatalf("statusz done count = %d, want 1; body %s", z.Jobs[StateDone], body)
	}
	if z.Simulations != 1 {
		t.Fatalf("statusz simulations = %d, want 1", z.Simulations)
	}
}

// TestRunnerMapBounded pins the cap on per-scale runners: jobs at
// maxRunners+1 distinct client-chosen scales leave at most maxRunners
// runners resident, and every job's report is still served, the evicted
// runner's from the store.
func TestRunnerMapBounded(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	s, ts := newTestServer(t, func(o *Options) { o.Store = st })
	var ids []string
	for i := 0; i <= maxRunners; i++ {
		body := fmt.Sprintf(`{"bench":"nw","technique":"Baseline","sms":2,"scale":%g}`, 0.05+float64(i)/1000)
		js := submitAndWait(t, ts, body)
		if js.State != StateDone {
			t.Fatalf("job at scale %d ended %s (%s)", i, js.State, js.Error)
		}
		ids = append(ids, js.ID)
	}
	s.mu.Lock()
	n := len(s.runners)
	s.mu.Unlock()
	if n > maxRunners {
		t.Fatalf("%d runners resident after %d distinct scales, cap is %d", n, maxRunners+1, maxRunners)
	}
	for _, id := range ids {
		resp, body := doJSON(t, ts, http.MethodGet, "/v1/reports/"+id, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/reports/%s = %d: %s", id, resp.StatusCode, body)
		}
		if _, err := sim.DecodeReport([]byte(body)); err != nil {
			t.Fatalf("report %s does not decode: %v", id, err)
		}
	}
}
