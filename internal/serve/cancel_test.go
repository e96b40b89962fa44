package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warpedgates/internal/core"
)

// slowJob is a workload that runs for minutes uncanceled (the scale-50
// hotspot the crash-safety suite uses for the same purpose), so every test
// below observes the job mid-flight.
const slowJob = `{"bench":"hotspot","technique":"WarpedGates","sms":2,"scale":50}`

// submitOne submits a job and returns its initial status.
func submitOne(t *testing.T, ts *httptest.Server, body string) JobStatus {
	t.Helper()
	resp, raw := doJSON(t, ts, http.MethodPost, "/v1/jobs", body, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(raw), &st); err != nil {
		t.Fatalf("submit response %q: %v", raw, err)
	}
	return st
}

// closeAndSettle shuts the service down — the HTTP front with its client
// connections, then the server — and polls runtime.NumGoroutine back to
// base, the count before the test built the server, as core's
// TestRunManyCancelLeaksNoGoroutines does: a canceled job must leave no
// simulation, watcher or timer goroutine behind.
func closeAndSettle(t *testing.T, s *Server, ts *httptest.Server, base int) {
	t.Helper()
	ts.Close()
	s.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines live, started with %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSSEDisconnectCancelsJob pins the stream-as-attachment semantics: a
// watcher that opens an SSE stream on a running job and disconnects cancels
// the job's context with ErrClientGone as the cause, and the terminal status
// classifies it as error_kind "client_gone". No goroutine outlives it.
func TestSSEDisconnectCancelsJob(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := newTestServer(t, nil)
	st := submitOne(t, ts, slowJob)
	waitState(t, ts, st.ID, StateRunning)

	// Open the stream with a cancelable request context and read the first
	// event, which guarantees the server has the watcher subscribed before we
	// disconnect.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("opening stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var first string
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			first = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if first == "" {
		t.Fatalf("no SSE event before disconnect: %v", sc.Err())
	}
	var ev JobStatus
	if err := json.Unmarshal([]byte(first), &ev); err != nil {
		t.Fatalf("SSE event %q: %v", first, err)
	}
	if ev.ID != st.ID {
		t.Fatalf("SSE event for job %s, want %s", ev.ID, st.ID)
	}

	cancel() // client disconnects mid-stream

	final := waitTerminal(t, ts, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("job ended %s (%s), want canceled", final.State, final.Error)
	}
	if final.ErrorKind != "client_gone" {
		t.Fatalf("error_kind = %q, want client_gone", final.ErrorKind)
	}
	// White box: the registry job's terminal error carries the exact cause.
	j := s.lookup(st.ID)
	if j == nil {
		t.Fatal("job evicted from registry")
	}
	if err := j.Err(); !errors.Is(err, ErrClientGone) {
		t.Fatalf("job error = %v, want ErrClientGone cause", err)
	}
	// A canceled run is never cached, so the key is retryable and no report
	// exists for it.
	resp2, _ := doJSON(t, ts, http.MethodGet, "/v1/reports/"+st.ID, "", nil)
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("report after cancellation: status %d, want 404", resp2.StatusCode)
	}
	resp.Body.Close()
	closeAndSettle(t, s, ts, base)
}

// TestPollingNeverCancels is the counterpart: a polling client coming and
// going must not cancel the job — only SSE watchers are attachments.
func TestPollingNeverCancels(t *testing.T) {
	s, ts := newTestServer(t, nil)
	st := submitOne(t, ts, slowJob)
	waitState(t, ts, st.ID, StateRunning)
	for i := 0; i < 5; i++ {
		doJSON(t, ts, http.MethodGet, "/v1/jobs/"+st.ID, "", nil)
	}
	time.Sleep(50 * time.Millisecond)
	j := s.lookup(st.ID)
	if j == nil {
		t.Fatal("job evicted from registry")
	}
	if got := j.State(); got != StateRunning {
		t.Fatalf("job state after polling = %s, want still running (err: %v)", got, j.Err())
	}
}

// TestDeadlineSurfacesInStatus pins the per-job deadline path: a deadline_ms
// far below the job's runtime fails the job with core.ErrDeadline as the
// cause, surfaced in the terminal status JSON as error_kind "deadline". No
// goroutine outlives it.
func TestDeadlineSurfacesInStatus(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := newTestServer(t, nil)
	st := submitOne(t, ts, `{"bench":"hotspot","technique":"WarpedGates","sms":2,"scale":50,"deadline_ms":100}`)
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("job ended %s (%s), want failed", final.State, final.Error)
	}
	if final.ErrorKind != "deadline" {
		t.Fatalf("error_kind = %q (error %q), want deadline", final.ErrorKind, final.Error)
	}
	j := s.lookup(st.ID)
	if j == nil {
		t.Fatal("job evicted from registry")
	}
	if err := j.Err(); !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("job error = %v, want core.ErrDeadline", err)
	}
	// A deadline failure is retryable: resubmitting the same key is accepted
	// as a fresh job rather than collapsing onto the failed one.
	resp, raw := doJSON(t, ts, http.MethodPost, "/v1/jobs", `{"bench":"hotspot","technique":"WarpedGates","sms":2,"scale":50,"deadline_ms":100}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmission after deadline failure: status %d, body %s", resp.StatusCode, raw)
	}
	closeAndSettle(t, s, ts, base)
}

// TestMaxDeadlineClamp pins the server-side clamp: a request asking for more
// than MaxDeadline is bounded by it (observed through the job failing at the
// clamped deadline rather than running for the requested one).
func TestMaxDeadlineClamp(t *testing.T) {
	_, ts := newTestServer(t, func(o *Options) { o.MaxDeadline = 100 * time.Millisecond })
	st := submitOne(t, ts, `{"bench":"hotspot","technique":"WarpedGates","sms":2,"scale":50,"deadline_ms":600000}`)
	start := time.Now()
	final := waitTerminal(t, ts, st.ID)
	if final.ErrorKind != "deadline" {
		t.Fatalf("error_kind = %q, want deadline (state %s, error %q)", final.ErrorKind, final.State, final.Error)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("clamped job ran %s, clamp did not take", elapsed)
	}
}

// TestDrainCancelsInFlight pins forced-drain semantics: when the drain grace
// expires, in-flight jobs are canceled with ErrDraining and classified as
// error_kind "draining". No goroutine outlives it.
func TestDrainCancelsInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := newTestServer(t, nil)
	st := submitOne(t, ts, slowJob)
	waitState(t, ts, st.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want deadline exceeded", err)
	}
	j := s.lookup(st.ID)
	if j == nil {
		t.Fatal("job evicted from registry")
	}
	if got := j.State(); got != StateCanceled {
		t.Fatalf("job state after forced drain = %s, want canceled", got)
	}
	if err := j.Err(); !errors.Is(err, ErrDraining) {
		t.Fatalf("job error = %v, want ErrDraining", err)
	}
	if st := j.status(); st.ErrorKind != "draining" {
		t.Fatalf("error_kind = %q, want draining", st.ErrorKind)
	}
	closeAndSettle(t, s, ts, base)
}

// TestSSEStreamsToCompletion checks the happy-path stream: a fast job's
// watcher receives a final "done" event and the stream ends cleanly without
// canceling anything.
func TestSSEStreamsToCompletion(t *testing.T) {
	_, ts := newTestServer(t, nil)
	st := submitOne(t, ts, smallJob)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("opening stream: %v", err)
	}
	defer resp.Body.Close()

	var last JobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				t.Fatalf("SSE event %q: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if last.State != StateDone {
		t.Fatalf("final streamed state = %s (%s), want done", last.State, last.Error)
	}
	if last.Report == "" {
		t.Fatal("final streamed status carries no report path")
	}
}

// countingCtx wraps the server's root context and counts the children
// derived from it: context.WithCancelCause registers a child through
// AfterFunc on a parent it cannot see a cancelCtx behind, and the child's
// stop runs when it is canceled. derived counts registrations, live those
// not yet stopped.
type countingCtx struct {
	context.Context
	derived, live atomic.Int64
}

// Value hides the wrapped cancelCtx, which would otherwise take the child
// directly. The root carries no values.
func (c *countingCtx) Value(any) any { return nil }

func (c *countingCtx) AfterFunc(f func()) func() bool {
	c.derived.Add(1)
	c.live.Add(1)
	stop := context.AfterFunc(c.Context, f)
	var once sync.Once
	return func() bool {
		once.Do(func() { c.live.Add(-1) })
		return stop()
	}
}

// TestJobContextsReleased pins that job contexts do not pile up on the
// server's root: a job derives one only when it is admitted, a refused or
// duplicate submission derives none that outlives the request, and every
// terminal job's context is done and released.
func TestJobContextsReleased(t *testing.T) {
	opts := testOptions()
	opts.Workers, opts.QueueDepth = 1, 1
	s, err := NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	root := &countingCtx{Context: s.rootCtx}
	s.rootCtx = root
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	var ids []string
	for seed := 1; seed <= 3; seed++ {
		body := fmt.Sprintf(`{"bench":"hotspot","technique":"WarpedGates","sms":2,"scale":0.05,"seed":%d}`, seed)
		ids = append(ids, submitAndWait(t, ts, body).ID)
		before := root.derived.Load()
		if resp, raw := doJSON(t, ts, http.MethodPost, "/v1/jobs", body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("duplicate submit: status %d, body %s", resp.StatusCode, raw)
		}
		if n := root.derived.Load(); n != before {
			t.Fatalf("a duplicate submission derived %d job contexts", n-before)
		}
	}
	// With one worker and a one-slot queue, three slow jobs submitted back
	// to back leave at least one refused.
	refused := 0
	for seed := 1; seed <= 3; seed++ {
		body := fmt.Sprintf(`{"bench":"hotspot","technique":"WarpedGates","sms":2,"scale":50,"seed":%d,"deadline_ms":1000}`, seed)
		resp, raw := doJSON(t, ts, http.MethodPost, "/v1/jobs", body, nil)
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st JobStatus
			if err := json.Unmarshal([]byte(raw), &st); err != nil {
				t.Fatalf("submit response %q: %v", raw, err)
			}
			ids = append(ids, st.ID)
		case http.StatusTooManyRequests:
			refused++
		default:
			t.Fatalf("slow submit: status %d, body %s", resp.StatusCode, raw)
		}
	}
	if refused == 0 {
		t.Fatal("no slow submission was refused")
	}
	for _, id := range ids {
		waitTerminal(t, ts, id)
	}
	if n, want := root.derived.Load(), int64(len(ids)+refused); n != want {
		t.Errorf("%d job contexts derived, want %d (one per admission attempt)", n, want)
	}
	if n := root.live.Load(); n != 0 {
		t.Errorf("%d job contexts still registered on the root after every job finished", n)
	}
	for _, id := range ids {
		j := s.lookup(id)
		if j.ctx.Err() == nil {
			t.Errorf("terminal job %s (%s): context not done", id, j.State())
		}
	}
}

// TestJobStateMachine drives one job through each lifecycle the service
// produces, event by event, and checks the final state and error_kind.
// Events act as the server does: run is a worker picking the job up (a job
// whose context is already done returns at once with its cause); cancel,
// client gone and drain plant their cause on the job's context, deadline
// expires the running phase's context, and a running simulation then returns
// the cause the way the engine wraps it. Terminal states are sticky, and every
// terminal job's context is done: reaching one releases it.
func TestJobStateMachine(t *testing.T) {
	type event int
	const (
		run event = iota
		finish
		fail
		cancel
		deadline
		clientGone
		drain
	)
	cases := []struct {
		name     string
		initial  State
		events   []event
		want     State
		wantKind string
	}{
		{"queued waits", StateQueued, nil, StateQueued, ""},
		{"picked up runs", StateQueued, []event{run}, StateRunning, ""},
		{"run to completion", StateQueued, []event{run, finish}, StateDone, ""},
		{"simulation error", StateQueued, []event{run, fail}, StateFailed, "error"},
		{"canceled while running", StateQueued, []event{run, cancel}, StateCanceled, "canceled"},
		{"deadline while running", StateRunning, []event{deadline}, StateFailed, "deadline"},
		{"client gone while running", StateRunning, []event{clientGone}, StateCanceled, "client_gone"},
		{"client gone while queued", StateQueued, []event{clientGone, run}, StateCanceled, "client_gone"},
		{"drain while running", StateRunning, []event{drain}, StateCanceled, "draining"},
		{"drain while queued", StateQueued, []event{drain, run}, StateCanceled, "draining"},
		{"deadline beats a later client gone", StateRunning, []event{deadline, clientGone}, StateFailed, "deadline"},
		{"done is sticky", StateQueued, []event{run, finish, fail, cancel, deadline, clientGone, drain}, StateDone, ""},
		{"failed is sticky", StateFailed, []event{run, finish, clientGone}, StateFailed, "error"},
		{"canceled is sticky", StateCanceled, []event{run, finish, deadline, drain}, StateCanceled, "canceled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root, cancelRoot := context.WithCancelCause(context.Background())
			defer cancelRoot(nil)
			j := &job{id: "id", key: "key", bench: "hotspot", tech: core.WarpedGates, state: StateQueued,
				subs: make(map[chan []byte]struct{}), done: make(chan struct{})}
			j.ctx, j.cancel = context.WithCancelCause(root)
			switch tc.initial {
			case StateFailed:
				j.transition(StateFailed, errors.New("sim: boom"))
			case StateCanceled:
				j.transition(StateCanceled, context.Canceled)
			case StateRunning:
				j.transition(StateRunning, nil)
			}
			// returned is the error a simulation stopped on ctx returns.
			returned := func(ctx context.Context) {
				if j.State() == StateRunning {
					j.finish(fmt.Errorf("sim: hotspot canceled at cycle 7: %w", context.Cause(ctx)))
				}
			}
			for _, ev := range tc.events {
				switch ev {
				case run:
					j.transition(StateRunning, nil)
					if j.ctx.Err() != nil {
						returned(j.ctx)
					}
				case finish:
					j.finish(nil)
				case fail:
					j.finish(errors.New("sim: boom"))
				case cancel:
					j.cancel(context.Canceled)
					returned(j.ctx)
				case deadline:
					runCtx, expire := context.WithCancelCause(j.ctx)
					expire(core.ErrDeadline)
					returned(runCtx)
				case clientGone:
					j.cancel(ErrClientGone)
					returned(j.ctx)
				case drain:
					cancelRoot(ErrDraining)
					returned(j.ctx)
				}
			}
			st := j.status()
			if st.State != tc.want || st.ErrorKind != tc.wantKind {
				t.Fatalf("ended %s (error_kind %q), want %s (%q)", st.State, st.ErrorKind, tc.want, tc.wantKind)
			}
			if !tc.want.terminal() {
				if j.ctx.Err() != nil {
					t.Fatal("live job's context is done")
				}
				return
			}
			if j.ctx.Err() == nil {
				t.Fatal("terminal job's context is not done")
			}
			select {
			case <-j.done:
			default:
				t.Fatal("terminal job's done channel is open")
			}
		})
	}
}
