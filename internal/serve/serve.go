// Package serve is the HTTP front-end that turns the experiment runner into
// a long-lived simulation service. It exposes a small JSON API:
//
//	POST /v1/jobs          submit a benchmark × technique simulation job
//	GET  /v1/jobs/{id}     poll job status, or stream it as SSE events
//	POST /v1/sweeps        submit a declarative parameter-grid sweep
//	GET  /v1/sweeps/{id}   poll aggregate and per-cell sweep status
//	GET  /v1/reports/{id}  fetch the finished report payload
//	GET  /v1/healthz       liveness (503 while draining)
//	GET  /v1/statusz       queue, job, quota and store counters
//
// The server wraps core.Runner, so everything the runner guarantees holds at
// the API boundary too: duplicate submissions collapse onto one simulation
// (job IDs are content addresses — the SHA-256 of the canonical job key, the
// same address the durable store files the report under), reports served
// from the in-memory or on-disk cache are byte-identical to fresh
// simulation, and canceled or timed-out runs are never cached. On top of the
// runner it adds the service concerns: per-client token-bucket quotas, a
// bounded admission queue with backpressure (429 + Retry-After), per-job
// deadlines mapped onto context cancellation with core.ErrDeadline as the
// cause, and graceful drain (stop admitting, finish or cancel in-flight).
package serve

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/store"
)

// Options configures a Server. The zero value of every field selects a
// sensible default; Base must still describe a valid machine (use
// config.GTX480()).
type Options struct {
	// Base is the machine configuration techniques are applied on top of.
	// Per-request knobs (sms, seed, gating parameters) override copies of it.
	Base config.Config
	// Store, when non-nil, is the durable report tier shared by every runner;
	// finished reports persist across restarts and are served cold from it.
	Store *store.Store
	// Workers bounds concurrent simulations. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; a full queue rejects submissions
	// with 429 + Retry-After. Default 64.
	QueueDepth int
	// QuotaRate is the sustained per-client submission rate in jobs/second;
	// QuotaBurst is the bucket capacity. Defaults 5/s and 10. A non-positive
	// rate with a positive burst means a fixed allowance; set both negative
	// to disable quotas entirely (tests do).
	QuotaRate  float64
	QuotaBurst int
	// DefaultDeadline applies to jobs that do not request one; MaxDeadline
	// clamps requested deadlines. Zero means no default / no clamp.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxWallTime is the runner-level watchdog backstop behind the per-job
	// deadlines. Zero disables it.
	MaxWallTime time.Duration
	// MaxCachedReports bounds each runner's in-memory report tier (the L1
	// over the store). The server keeps one runner per workload scale and
	// at most 16 runners, so at most 16 × MaxCachedReports reports are
	// resident. Default 256.
	MaxCachedReports int
	// MaxJobs bounds the job registry; oldest terminal jobs are pruned past
	// it (their reports remain fetchable — report IDs are store addresses).
	// Default 4096.
	MaxJobs int
	// MaxSweepCells bounds how many cells one sweep submission may expand
	// to; larger grids are rejected with a hint to shard. Default 4096.
	MaxSweepCells int
	// ProgressEveryCycles throttles SSE progress events: one event per this
	// many simulated cycles. Default 25000.
	ProgressEveryCycles int64
}

// withDefaults resolves zero-valued options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.QuotaRate == 0 && o.QuotaBurst == 0 {
		o.QuotaRate, o.QuotaBurst = 5, 10
	}
	if o.MaxCachedReports <= 0 {
		o.MaxCachedReports = 256
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	if o.MaxSweepCells <= 0 {
		o.MaxSweepCells = 4096
	}
	if o.ProgressEveryCycles <= 0 {
		o.ProgressEveryCycles = 25000
	}
	return o
}

// Server is the HTTP simulation service. Create one with NewServer, mount it
// (it implements http.Handler), and call Drain then Close on shutdown. All
// methods are safe for concurrent use.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	start time.Time

	quotas *quotas

	mu         sync.Mutex
	draining   bool
	queue      chan *job
	runners    map[float64]*list.Element // values are *core.Runner
	runnerLRU  list.List                 // most recently used first
	jobs       map[string]*job
	order      []*job // submission order, for terminal-job pruning
	sweeps     map[string]*sweepRun
	sweepOrder []*sweepRun

	// senders counts in-flight blocking queue sends (sweep feeders). Drain
	// closes the queue only after they finish — see admit.
	senders sync.WaitGroup

	lifecycle // job contexts and the worker pool

	// sims counts uncached simulations started by this process — the number
	// the lifecycle test pins at zero for a store-warm restart.
	sims atomic.Uint64
}

// NewServer builds and starts a service over the given options: the worker
// pool is running on return and the handler is ready to mount.
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := opts.Base.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid base config: %w", err)
	}
	s := &Server{
		opts:    opts,
		start:   time.Now(),
		quotas:  newQuotas(opts.QuotaRate, opts.QuotaBurst),
		queue:   make(chan *job, opts.QueueDepth),
		runners: make(map[float64]*list.Element),
		jobs:    make(map[string]*job),
		sweeps:  make(map[string]*sweepRun),
	}
	s.lifecycle.init()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweep)
	s.mux.HandleFunc("GET /v1/reports/{id}", s.handleReport)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/statusz", s.handleStatusz)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// maxRunners caps the per-scale runner map. Scale is client-chosen, so
// without a cap the map, and the reports each runner keeps resident, would
// grow with every distinct scale clients send. With it, resident reports are
// bounded by maxRunners × MaxCachedReports.
const maxRunners = 16

// runner returns the memoizing runner for one workload scale, creating it on
// first use. Scale is a Runner-wide field, so each distinct scale gets its
// own runner; they share the durable store, so the durable tier is still one
// namespace (scale is part of every canonical job key). Past maxRunners the
// least recently used runner is dropped. A job already running keeps the
// runner it holds; its report stays fetchable from the store.
func (s *Server) runner(scale float64) *core.Runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.runners[scale]; ok {
		s.runnerLRU.MoveToFront(e)
		return e.Value.(*core.Runner)
	}
	r := core.NewRunner(s.opts.Base)
	r.Scale = scale
	r.Store = s.opts.Store
	r.MaxCachedReports = s.opts.MaxCachedReports
	r.MaxWallTime = s.opts.MaxWallTime
	r.Progress = func(string, config.Config) { s.sims.Add(1) }
	r.Instrument = s.instrument(scale)
	s.runners[scale] = s.runnerLRU.PushFront(r)
	if s.runnerLRU.Len() > maxRunners {
		old := s.runnerLRU.Remove(s.runnerLRU.Back()).(*core.Runner)
		delete(s.runners, old.Scale)
	}
	return r
}

// residentRunner returns the runner for scale if one exists, without
// creating one: a report read must not grow the runner map.
func (s *Server) residentRunner(scale float64) (*core.Runner, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.runners[scale]
	if !ok {
		return nil, false
	}
	return e.Value.(*core.Runner), true
}

// Simulations returns how many uncached simulations this process has started
// — zero when every request was served from a cache tier.
func (s *Server) Simulations() uint64 { return s.sims.Load() }

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON renders v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders a JSON error envelope.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBytes bounds a submission body. The largest sweep a default
// server admits — MaxSweepCells full-width seeds on one axis — encodes to
// about 86 KB, a twelfth of it (TestRequestLimitFitsLargestSweep pins the
// headroom).
const maxRequestBytes = 1 << 20

// decodeRequest strictly decodes a submission body into v: unknown fields,
// a body over maxRequestBytes and anything but whitespace after the one JSON
// value are all errors (json.Decoder alone would stop reading after the
// first value). It returns the HTTP status the error maps to: 413 for an
// oversized body, 400 otherwise. w may be nil outside a handler.
func decodeRequest(w http.ResponseWriter, body io.ReadCloser, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		var extra json.RawMessage
		if err = dec.Decode(&extra); err == io.EOF {
			return 0, nil
		}
		if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
	}
	return http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err)
}

// handleHealthz is the liveness endpoint: 200 while serving, 503 while
// draining, so load balancers stop routing to an instance that no longer
// admits work.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Statusz is the /v1/statusz payload: the service's operational counters.
type Statusz struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Draining      bool           `json:"draining"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCap      int            `json:"queue_cap"`
	Jobs          map[State]int  `json:"jobs"`
	Sweeps        int            `json:"sweeps"`
	Simulations   uint64         `json:"simulations"`
	Clients       int            `json:"quota_clients"`
	Store         *storeCounters `json:"store,omitempty"`
}

// storeCounters mirrors store.Health with JSON names for /v1/statusz.
type storeCounters struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
	ReadErrors  uint64 `json:"read_errors"`
	Quarantined uint64 `json:"quarantined"`
	Retries     uint64 `json:"retries"`
}

// handleStatusz reports queue depth, job states, simulation count and the
// durable store's health counters.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := Statusz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Simulations:   s.sims.Load(),
		Clients:       s.quotas.clients(),
		Jobs:          make(map[State]int),
	}
	s.mu.Lock()
	st.Draining = s.draining
	st.QueueDepth = len(s.queue)
	st.QueueCap = cap(s.queue)
	for _, j := range s.jobs {
		st.Jobs[j.State()]++
	}
	st.Sweeps = len(s.sweeps)
	s.mu.Unlock()
	if s.opts.Store != nil {
		h := s.opts.Store.Health()
		st.Store = &storeCounters{
			Hits: h.Hits, Misses: h.Misses, Writes: h.Writes,
			WriteErrors: h.WriteErrors, ReadErrors: h.ReadErrors,
			Quarantined: h.Quarantined, Retries: h.Retries,
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleReport serves the finished report payload for a job/report ID — the
// content address of the canonical job key. The read is tiered like the
// runner's own cache: the in-memory report of a registry-known job first,
// then the durable store by hash, which is what makes reports fetchable
// across a server restart with zero re-simulation.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !store.ValidHash(id) {
		writeError(w, http.StatusBadRequest, "malformed report id %q: want 64 hex characters", id)
		return
	}
	if data, ok := s.reportFromL1(id); ok {
		serveReport(w, id, data)
		return
	}
	if s.opts.Store != nil {
		data, ok, err := s.opts.Store.GetByHash(id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "reading report: %v", err)
			return
		}
		if ok {
			serveReport(w, id, data)
			return
		}
	}
	writeError(w, http.StatusNotFound, "no report %s", id)
}

// serveReport writes the encoded report payload. Payloads are content-
// addressed and immutable, so they are safe to cache indefinitely.
func serveReport(w http.ResponseWriter, id string, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("ETag", `"`+id+`"`)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	_, _ = w.Write(data)
}

// reportFromL1 serves a report from the registry + runner in-memory tier:
// a known, completed job whose report is still resident encodes to exactly
// the bytes the store holds (the codec is deterministic — pinned by the
// golden corpus), so the two tiers are interchangeable.
func (s *Server) reportFromL1(id string) ([]byte, bool) {
	j := s.lookup(id)
	if j == nil || j.State() != StateDone {
		return nil, false
	}
	r, ok := s.residentRunner(j.scale)
	if !ok {
		return nil, false
	}
	rep, ok := r.CachedReport(j.key)
	if !ok {
		return nil, false
	}
	data, err := encodeReport(rep)
	if err != nil {
		return nil, false
	}
	return data, true
}

// errorKind classifies a terminal job error for the status JSON, so clients
// can react without parsing error strings: "deadline" (the per-job deadline
// or the server watchdog fired, core.ErrDeadline), "client_gone" (the SSE
// watcher disconnected), "draining" (server shutdown canceled the job),
// "canceled" (any other cancellation), "panic", or "error".
func errorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrDeadline):
		return "deadline"
	case errors.Is(err, ErrClientGone):
		return "client_gone"
	case errors.Is(err, ErrDraining):
		return "draining"
	case isCanceled(err):
		return "canceled"
	case isPanic(err):
		return "panic"
	default:
		return "error"
	}
}

func isPanic(err error) bool {
	var pe *core.PanicError
	return errors.As(err, &pe)
}
