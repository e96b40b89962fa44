package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
	"warpedgates/internal/sweep"
)

// ErrDeadline is the cancellation cause planted when a job's deadline (its
// requested deadline_ms, the server default, or the MaxDeadline clamp)
// expires while it runs. It is the only running-time limit a job has, and
// it is distinct from every cancellation: a timed-out job ends failed, not
// canceled.
var ErrDeadline = errors.New("serve: job exceeded its deadline")

// ErrClientGone is the cancellation cause planted when a job's SSE watcher
// disconnects before the job finishes: a streamed job is interactive, and
// its watcher leaving cancels the simulation (polling clients never cancel).
var ErrClientGone = errors.New("serve: client disconnected")

// ErrDraining is the cancellation cause planted into jobs still in flight
// when a drain deadline expires.
var ErrDraining = errors.New("serve: server draining")

// errReleased is the cause that releases a terminal job's context. Nothing
// reports it: the job's state and error are already final when it is
// planted.
var errReleased = errors.New("serve: job terminal")

// State is a job's lifecycle position.
type State string

// Job states. Queued and running are transient; done, failed and canceled
// are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether the state is final.
func (st State) terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// JobRequest is the POST /v1/jobs body. Only axes that are part of the
// canonical job key are accepted — a knob that cannot key a distinct cached
// result (MaxCycles, engine tuning) would let two different jobs collide on
// one report, so such knobs are rejected by the strict decoder instead of
// silently ignored.
type JobRequest struct {
	Bench     string `json:"bench"`
	Technique string `json:"technique"`
	// SMs overrides the base machine's SM count when positive.
	SMs int `json:"sms,omitempty"`
	// Scale is the workload scale factor; 0 means 1.0 (the full workload).
	Scale float64 `json:"scale,omitempty"`
	// Seed, when non-nil, overrides the base configuration's PRNG seed.
	Seed *uint64 `json:"seed,omitempty"`
	// Gating parameter overrides; 0 keeps the base value.
	IdleDetect  int `json:"idle_detect,omitempty"`
	BreakEven   int `json:"break_even,omitempty"`
	WakeupDelay int `json:"wakeup_delay,omitempty"`
	// SampleDetail/SamplePeriod select interval-sampled execution (detail
	// window and period in cycles; set both or neither). A sampled report is
	// an estimate and keys a distinct canonical job, so it never collides
	// with a detailed run of the same cell.
	SampleDetail int `json:"sample_detail,omitempty"`
	SamplePeriod int `json:"sample_period,omitempty"`
	// DeadlineMS bounds the job's wall-clock runtime; exceeding it fails the
	// job with error_kind "deadline". 0 means the server default; requests
	// above the server maximum are clamped to it.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// JobStatus is the status JSON for one job — the GET /v1/jobs/{id} body, the
// POST /v1/jobs response, and the payload of SSE "status" events.
type JobStatus struct {
	ID        string `json:"id"`
	Key       string `json:"key"`
	Bench     string `json:"bench"`
	Technique string `json:"technique"`
	State     State  `json:"state"`
	// Cycles is the latest simulated-cycle progress report (final cycle
	// count once done).
	Cycles    int64  `json:"cycles,omitempty"`
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Report is the path the finished payload is served at.
	Report string `json:"report,omitempty"`
}

// job is one registry entry. Identity is content-addressed: id is the
// SHA-256 of the canonical job key, so re-submitting the same work from any
// client always lands on the same job (and the same report URL).
type job struct {
	id    string
	key   string
	bench string
	tech  core.Technique
	cfg   config.Config
	scale float64
	// runDeadline bounds the job's running phase; set before the job is
	// enqueued and read only by the worker that runs it.
	runDeadline time.Duration

	// ctx governs the whole job (queued and running); cancel plants a cause.
	// Both are set when the server admits the job, so a request that is
	// refused or collapses onto an existing job never derives one, and the
	// terminal transition releases it.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu     sync.Mutex
	state  State
	err    error
	cycles int64
	subs   map[chan []byte]struct{}
	done   chan struct{} // closed on terminal transition
}

// State returns the job's current state.
func (j *job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's terminal error, if any.
func (j *job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// status snapshots the job as its status JSON.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked is status for a caller that holds j.mu.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.id,
		Key:       j.key,
		Bench:     j.bench,
		Technique: j.tech.String(),
		State:     j.state,
		Cycles:    j.cycles,
	}
	if j.err != nil {
		st.Error = j.err.Error()
		st.ErrorKind = errorKind(j.err)
	}
	if j.state == StateDone {
		st.Report = "/v1/reports/" + j.id
	}
	return st
}

// transition moves the job to a new state (recording err on terminal
// failure) and publishes the fresh status to subscribers. Terminal states
// are sticky: once done/failed/canceled, later transitions are ignored, and
// reaching one releases the job's context from the server's root.
func (j *job) transition(state State, err error) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.err = err
	if state.terminal() {
		close(j.done)
	}
	j.mu.Unlock()
	if state.terminal() {
		j.cancel(errReleased)
	}
	j.publish()
}

// progress records a cycle-count progress report and publishes it.
func (j *job) progress(cycles int64) {
	j.mu.Lock()
	if cycles <= j.cycles {
		j.mu.Unlock()
		return
	}
	j.cycles = cycles
	j.mu.Unlock()
	j.publish()
}

// publish fans the current status out to every subscriber, dropping events a
// slow subscriber has no buffer for (the terminal event is never lost: the
// done channel carries it out-of-band). A job nobody watches is not
// marshaled at all.
func (j *job) publish() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.subs) == 0 {
		return
	}
	data := statusJSON(j.statusLocked())
	for ch := range j.subs {
		select {
		case ch <- data:
		default:
		}
	}
}

// statusJSON marshals a status snapshot. The status struct cannot fail to
// marshal, so an error degrades to an empty object rather than a panic.
func statusJSON(st JobStatus) []byte {
	data, err := json.Marshal(st)
	if err != nil {
		return []byte("{}")
	}
	return data
}

// subscribe registers an SSE watcher; the returned cancel must be called on
// disconnect.
func (j *job) subscribe() (chan []byte, func()) {
	ch := make(chan []byte, 16)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// lifecycle holds the server's shutdown machinery: the root context every
// job derives from, and the worker pool's waitgroup.
type lifecycle struct {
	rootCtx    context.Context
	cancelRoot context.CancelCauseFunc
	wg         sync.WaitGroup
}

func (l *lifecycle) init() {
	l.rootCtx, l.cancelRoot = context.WithCancelCause(context.Background())
}

// buildJob resolves a JobRequest as the one-cell sweep it is: each set
// field becomes a one-valued sweep axis and each zero or absent one an empty
// axis (the base value), so sweep.Expand and the cell constructor are the
// only axis→config rule for jobs and sweep cells alike. The error string is
// client-facing (a 400 body).
func (s *Server) buildJob(req *JobRequest) (*job, error) {
	if req.Bench == "" {
		return nil, fmt.Errorf("missing field: bench")
	}
	if req.Technique == "" {
		return nil, fmt.Errorf("missing field: technique")
	}
	spec := sweep.Spec{
		Benches:      []string{req.Bench},
		Techniques:   []string{req.Technique},
		SMs:          axis(req.SMs),
		Scales:       axis(req.Scale),
		IdleDetects:  axis(req.IdleDetect),
		BreakEvens:   axis(req.BreakEven),
		WakeupDelays: axis(req.WakeupDelay),
		SampleDetail: req.SampleDetail,
		SamplePeriod: req.SamplePeriod,
	}
	if req.Seed != nil {
		spec.Seeds = []uint64{*req.Seed}
	}
	cells, err := sweep.Expand(spec, s.opts.Base)
	if err != nil {
		return nil, err
	}
	return s.newJob(cells[0])
}

// axis maps a one-valued request field onto a sweep axis: zero is the empty
// axis, which keeps the base value. A non-zero value is kept verbatim, even
// an invalid negative one, so validation rejects it with a precise message.
func axis[T int | float64](v T) []T {
	if v == 0 {
		return nil
	}
	return []T{v}
}

// newJob validates one resolved grid cell and builds its registry job,
// queued and not yet admitted. Jobs and sweep cells both come from here.
func (s *Server) newJob(c sweep.Cell) (*job, error) {
	cfg := c.Config(s.opts.Base)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key := core.JobKey(c.Bench, cfg, c.Scale)
	return &job{
		id:    store.HashKey(key),
		key:   key,
		bench: c.Bench,
		tech:  c.Technique,
		cfg:   cfg,
		scale: c.Scale,
		state: StateQueued,
		subs:  make(map[chan []byte]struct{}),
		done:  make(chan struct{}),
	}, nil
}

// deadline resolves a requested deadline (milliseconds) against the server's
// default and clamp.
func (s *Server) deadline(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = s.opts.DefaultDeadline
	}
	if s.opts.MaxDeadline > 0 && (d <= 0 || d > s.opts.MaxDeadline) {
		d = s.opts.MaxDeadline
	}
	return d
}

// handleSubmit admits one job: quota check, duplicate collapse, bounded
// queue. A fresh job answers 202 with its queued status; a duplicate of a
// live or completed job answers 200 with the existing status (the API-level
// face of the runner's singleflight). A failed or canceled job is replaced
// by its resubmission, which is what makes every error retryable.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !s.decodeSubmission(w, r, &req) {
		return
	}
	j, err := s.buildJob(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	deadline := s.deadline(req.DeadlineMS)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining: not admitting new jobs")
		return
	}
	// A single job never waits for a queue slot: a full queue refuses it.
	got := s.claimLocked(j, deadline, func(j *job) bool {
		select {
		case s.queue <- j:
			return true
		default:
			return false
		}
	})
	s.pruneLocked()
	s.mu.Unlock()

	switch got {
	case nil:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission queue full (%d jobs); retry later", cap(s.queue))
	case j:
		writeJSON(w, http.StatusAccepted, j.status())
	default:
		writeJSON(w, http.StatusOK, got.status())
	}
}

// decodeSubmission is the preamble both submit endpoints share: the
// client's quota, then the strict decode of the body into req. On failure
// it has written the error response and returns false.
func (s *Server) decodeSubmission(w http.ResponseWriter, r *http.Request, req any) bool {
	if ok, wait := s.quotas.take(clientID(r), time.Now()); !ok {
		w.Header().Set("Retry-After", retryAfter(wait))
		writeError(w, http.StatusTooManyRequests, "client quota exceeded; retry in %s", wait.Round(time.Millisecond))
		return false
	}
	if code, err := decodeRequest(w, r.Body, req); err != nil {
		writeError(w, code, "%v", err)
		return false
	}
	return true
}

// claimLocked is the collapse-or-register step of both submit endpoints,
// run under s.mu. A live or done job with j's id is returned as is: the
// submission collapses onto it. Otherwise j gets its deadline and a context
// derived from the server root and, if admit (nil admits everything) takes
// it, replaces any failed or canceled job under that id and is returned. A
// job admit refuses is released, and nil is returned with nothing
// registered.
func (s *Server) claimLocked(j *job, deadline time.Duration, admit func(*job) bool) *job {
	if prev, ok := s.jobs[j.id]; ok {
		if st := prev.State(); st != StateFailed && st != StateCanceled {
			return prev
		}
	}
	j.runDeadline = deadline
	j.ctx, j.cancel = context.WithCancelCause(s.rootCtx)
	if admit != nil && !admit(j) {
		j.cancel(errReleased)
		return nil
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	return j
}

// pruneLocked evicts the oldest terminal jobs once the registry exceeds its
// bound. Live (queued/running) jobs are never pruned; their registry entry
// is what an SSE watcher or a poller is attached to. Pruned reports stay
// fetchable — the report endpoint falls through to the durable store.
func (s *Server) pruneLocked() {
	if len(s.jobs) <= maxJobs {
		return
	}
	kept := s.order[:0]
	for _, j := range s.order {
		if s.jobs[j.id] != j {
			continue // replaced by a resubmission; only the order slot remains
		}
		if len(s.jobs) > maxJobs && j.State().terminal() {
			delete(s.jobs, j.id)
			continue
		}
		kept = append(kept, j)
	}
	s.order = kept
}

// lookup returns the registry job for an id, or nil.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// handleJob answers a status poll, or switches to an SSE stream when the
// client asked for text/event-stream.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %s", r.PathValue("id"))
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamJob(w, r, j)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// worker drains the admission queue, one simulation at a time.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job: arm the per-job deadline, run through the
// memoizing runner (cache tiers, singleflight and panic recovery all
// apply), and record the terminal state. The deadline is the only limit on
// a job's running time, and this is the only code that plants ErrDeadline.
func (s *Server) runJob(j *job) {
	j.transition(StateRunning, nil)
	ctx := j.ctx
	if j.runDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, j.runDeadline, ErrDeadline)
		defer cancel()
	}
	rep, err := s.runner(j.scale).RunCfgCtx(ctx, j.bench, j.cfg)
	if err == nil {
		j.progress(rep.Cycles)
	}
	j.finish(err)
}

// finish records a run's outcome: done on success, canceled when a caller,
// watcher or drain canceled it, failed otherwise (deadline expiry included).
func (j *job) finish(err error) {
	switch {
	case err == nil:
		j.transition(StateDone, nil)
	case isCanceled(err):
		j.transition(StateCanceled, err)
	default:
		j.transition(StateFailed, err)
	}
}

// isCanceled reports whether err is any cancellation: the plain context
// sentinels or the service's own causes.
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, ErrClientGone) ||
		errors.Is(err, ErrDraining)
}

// instrument is the Runner.Instrument hook for one scale's runner: it wires
// the engine's issue tracer to the job registry so SSE watchers see
// throttled progress events, and reports the final cycle count on
// completion. The tracer costs one call per issued instruction and leaves
// the fast-forward alone, where a per-cycle probe would make every SM build
// its lane states on every cycle, skipped ones included. Simulations the
// registry does not know about run untraced.
func (s *Server) instrument(scale float64) core.Instrumenter {
	return func(bench string, cfg config.Config, k *kernels.Kernel, g *sim.GPU) func(*sim.Report) error {
		j := s.lookup(store.HashKey(core.JobKey(bench, cfg, scale)))
		if j == nil {
			return nil
		}
		var last int64
		g.SetIssueTracer(func(_ int, cycle int64, _ int, _ isa.Class, _ int) {
			// Any SM may report: the loop steps SMs in id order within a
			// device cycle, so issue cycles never decrease.
			if cycle-last < progressEveryCycles {
				return
			}
			last = cycle
			j.progress(cycle)
		})
		return func(rep *sim.Report) error {
			j.progress(rep.Cycles)
			return nil
		}
	}
}

// Drain gracefully shuts the service down: stop admitting (submissions and
// health checks answer 503), let queued and running jobs — including a
// sweep's already-admitted cells — finish, and — if ctx expires first —
// cancel everything still in flight with ErrDraining and wait for the
// workers to exit. It returns the first of those two outcomes' error: nil
// for a clean drain, ctx's error for a forced one.
//
// The queue is closed off the Drain goroutine, after in-flight sweep feeders
// finish: a feeder blocked on the full queue must never race the close (a
// send on a closed channel panics), and once draining is set no new feeder
// can register. Single-job submissions send under the mutex after checking
// the draining flag, so they are ordered before the close the same way.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		go func() {
			s.senders.Wait()
			close(s.queue)
		}()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelRoot(ErrDraining)
		<-done
		return ctx.Err()
	}
}

// Close force-drains the service: admission stops and every in-flight job is
// canceled immediately.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}

// clientID identifies the quota principal: an explicit X-API-Client header
// when the client sets one, the remote host otherwise.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-API-Client"); c != "" {
		return c
	}
	host := r.RemoteAddr
	if i := strings.LastIndex(host, ":"); i >= 0 {
		host = host[:i]
	}
	return host
}

// retryAfter renders a wait as the whole-second Retry-After header value
// (rounded up; never below 1 — a zero would invite an immediate retry storm).
func retryAfter(wait time.Duration) string {
	secs := int64(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
