package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
	"warpedgates/internal/store"
)

// spanName says what a span measured.
type spanName uint8

const (
	spanRound    spanName = iota // one round of a batch workload
	spanPass                     // sweep.pass: one RunCells call
	spanCall                     // core.call: one RunCfgCtx call
	spanJob                      // core.job: one simulation through the runner
	spanSimSetup                 // sim.setup: Progress hook to Instrument hook (NewGPU)
	spanSimRun                   // sim.run: Instrument hook to its finish callback
	spanCell                     // sweep.cell: a replayed cell, store read to Progress callback
	spanRead                     // store.read
	spanWrite                    // store.write
	spanRename                   // store.rename
	spanMkdir                    // store.mkdir
	spanServeJob                 // serve.job: scheduled send to last report byte
	spanSubmit                   // serve.submit: POST /v1/jobs
	spanQueue                    // serve.queue: 202 to the first SSE event past queued
	spanServeRun                 // serve.run: that event to the terminal event
	spanReport                   // serve.report: GET /v1/reports/{id}
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"round", "sweep.pass", "core.call", "core.job", "sim.setup", "sim.run", "sweep.cell",
	"store.read", "store.write", "store.rename", "store.mkdir",
	"serve.job", "serve.submit", "serve.queue", "serve.run", "serve.report",
}

func (n spanName) String() string { return spanNames[n] }

func (n spanName) store() bool { return n >= spanRead && n <= spanMkdir }

// hash is a store content address in binary; the zero hash means none.
type hash [32]byte

// hashOf decodes a content address as the store and the service print it.
func hashOf(s string) hash {
	var h hash
	if len(s) == 64 {
		hex.Decode(h[:], []byte(s)) // a malformed address reads as no job
	}
	return h
}

// span is one traced interval. Every span comes from the benchmark's own
// code: around its calls into the program, at the runner's Progress and
// Instrument hooks, inside the store's filesystem, and at the service's SSE
// state events. job is the store content hash of the simulation the span
// belongs to, which is also the service's job id. A span holds no pointers,
// so a long trace adds no work to the garbage collector's scans of the
// heap the measured program shares with it.
type span struct {
	name       spanName
	dir        uint16 // store.mkdir and store.write: the entry's fan-out directory
	round      int32
	parent     int32
	start, end int64 // nanoseconds since the tracer started
	job        hash
}

func (s *span) dur() int64 { return s.end - s.start }

// jobRef names one simulation within one round.
type jobRef struct {
	round int32
	job   hash
}

// tracer keeps spans in memory until the run ends. Safe for concurrent use.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	round    int32
	spans    []span
	marks    map[jobRef]int64  // start of a simulation's pending sim.* span
	smCycles map[jobRef]uint64 // simulated SM-cycles of each finished simulation
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), marks: make(map[jobRef]int64), smCycles: make(map[jobRef]uint64)}
}

// now is the time since the tracer started, in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock time to tracer time.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// add records a finished span in the current round and returns its id.
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(s)
}

func (t *tracer) addLocked(s span) int32 {
	s.round = t.round
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// beginRound starts round r: spans recorded from now on belong to it. It is
// called between rounds, when nothing else records.
func (t *tracer) beginRound(r int) {
	t.mu.Lock()
	t.round = int32(r)
	t.mu.Unlock()
}

// jobID is the store content hash of one simulation: the id the store files
// its report under and the service hands out.
func jobID(bench string, cfg config.Config, scale float64) hash {
	return hashOf(store.HashKey(core.JobKey(bench, cfg, scale)))
}

// hook installs the runner's Progress and Instrument hooks: Progress marks a
// simulation's start, Instrument ends its sim.setup span (NewGPU) and the
// finish callback ends its sim.run span.
func (t *tracer) hook(r *core.Runner) {
	scale := r.Scale
	r.Progress = func(bench string, cfg config.Config) {
		now := t.now()
		t.mu.Lock()
		t.marks[jobRef{t.round, jobID(bench, cfg, scale)}] = now
		t.mu.Unlock()
	}
	r.Instrument = func(bench string, cfg config.Config, _ *kernels.Kernel, _ *sim.GPU) func(*sim.Report) error {
		ref := jobRef{job: jobID(bench, cfg, scale)}
		ready := t.now()
		t.mu.Lock()
		ref.round = t.round
		t.addLocked(span{name: spanSimSetup, job: ref.job, start: t.marks[ref], end: ready, parent: -1})
		delete(t.marks, ref)
		t.mu.Unlock()
		return func(rep *sim.Report) error {
			end := t.now()
			t.mu.Lock()
			t.addLocked(span{name: spanSimRun, job: ref.job, start: ready, end: end, parent: -1})
			t.smCycles[ref] = uint64(rep.Cycles) * uint64(rep.Config.NumSMs)
			t.mu.Unlock()
			return nil
		}
	}
}

// timingFS is the store filesystem with every read, write, rename and
// directory creation recorded as a span. It passes bytes through untouched.
type timingFS struct {
	store.FS
	t *tracer
}

// fs wraps inner so that the store's file operations are traced.
func (t *tracer) fs(inner store.FS) store.FS { return timingFS{FS: inner, t: t} }

// jobOf recovers the content hash from a store path: entries are named
// <hash>.rep and temp files <hash>.<seq>.tmp.
func jobOf(path string) hash {
	base := filepath.Base(path)
	if len(base) >= 64 {
		return hashOf(base[:64])
	}
	return hash{}
}

// fanout identifies an entry's directory: the store files entries under a
// directory named by the first two hex digits of their hash.
func fanout(dir string) uint16 {
	b := filepath.Base(dir)
	if len(b) != 2 {
		return 0
	}
	return uint16(b[0])<<8 | uint16(b[1])
}

func (f timingFS) ReadFile(path string) ([]byte, error) {
	start := f.t.now()
	data, err := f.FS.ReadFile(path)
	f.t.add(span{name: spanRead, job: jobOf(path), start: start, end: f.t.now(), parent: -1})
	return data, err
}

func (f timingFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	start := f.t.now()
	err := f.FS.WriteFile(path, data, perm)
	f.t.add(span{name: spanWrite, job: jobOf(path), dir: fanout(filepath.Dir(path)), start: start, end: f.t.now(), parent: -1})
	return err
}

func (f timingFS) Rename(oldpath, newpath string) error {
	start := f.t.now()
	err := f.FS.Rename(oldpath, newpath)
	f.t.add(span{name: spanRename, job: jobOf(newpath), start: start, end: f.t.now(), parent: -1})
	return err
}

func (f timingFS) MkdirAll(path string, perm os.FileMode) error {
	start := f.t.now()
	err := f.FS.MkdirAll(path, perm)
	f.t.add(span{name: spanMkdir, dir: fanout(path), start: start, end: f.t.now(), parent: -1})
	return err
}

// attributeMkdirs gives each store.mkdir span the job of the first write
// that follows it in the same directory: Store.Put makes the entry's
// directory and then writes the entry's temp file into it.
func (t *tracer) attributeMkdirs() {
	writes := t.named(spanWrite)
	sort.Slice(writes, func(a, b int) bool { return t.spans[writes[a]].start < t.spans[writes[b]].start })
	for i := range t.spans {
		m := &t.spans[i]
		if m.name != spanMkdir || m.job != (hash{}) || m.dir == 0 {
			continue
		}
		j := sort.Search(len(writes), func(k int) bool { return t.spans[writes[k]].start >= m.end })
		for ; j < len(writes); j++ {
			if w := t.spans[writes[j]]; w.dir == m.dir {
				m.job = w.job
				break
			}
		}
	}
}

// groups returns the span ids of each (round, job), in first-seen order.
func (t *tracer) groups() ([]jobRef, map[jobRef][]int) {
	g := make(map[jobRef][]int)
	var refs []jobRef
	for i, s := range t.spans {
		if s.job == (hash{}) {
			continue
		}
		ref := jobRef{s.round, s.job}
		if _, ok := g[ref]; !ok {
			refs = append(refs, ref)
		}
		g[ref] = append(g[ref], i)
	}
	return refs, g
}

// named returns the ids of the spans called name.
func (t *tracer) named(name spanName) []int {
	var out []int
	for i := range t.spans {
		if t.spans[i].name == name {
			out = append(out, i)
		}
	}
	return out
}

// roundSpans maps each round to the id of its span called name.
func (t *tracer) roundSpans(name spanName) map[int32]int {
	out := make(map[int32]int)
	for _, i := range t.named(name) {
		out[t.spans[i].round] = i
	}
	return out
}

// durs returns the durations of spans ids in milliseconds, sorted.
func (t *tracer) durs(ids []int) []float64 {
	out := make([]float64, len(ids))
	for k, i := range ids {
		out[k] = float64(t.spans[i].dur()) / 1e6
	}
	return sorted(out)
}

// sum adds up the durations of spans ids in nanoseconds.
func (t *tracer) sum(ids []int) float64 {
	var s float64
	for _, i := range ids {
		s += float64(t.spans[i].dur())
	}
	return s
}

// p50 sets metric name to the median duration of spans ids, with its count.
func (t *tracer) p50(m metrics, name string, ids []int) {
	d := t.durs(ids)
	m.setN(name, median(d), len(d))
}

// envelope adds a span named name that covers the spans ids and returns its
// id. The caller sets the parent links.
func (t *tracer) envelope(name spanName, ids []int) int {
	s := t.spans[ids[0]]
	for _, i := range ids[1:] {
		s.start = min(s.start, t.spans[i].start)
		s.end = max(s.end, t.spans[i].end)
	}
	s.name, s.parent, s.dir = name, -1, 0
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// runnerLayers derives the per-layer metrics of a workload driven through
// core.Runner. Each simulation's spans (its store lookup, sim.setup, sim.run
// and store commit) become children of one core.job span: the envelope of
// those spans, or the benchmark's own core.call span around a RunCfgCtx call
// where there is one. Work the runner does outside every child span (kernel
// build before Progress, report encode, cost model, cache) is the job's
// self time.
func (t *tracer) runnerLayers(m metrics, nproc int) {
	t.attributeMkdirs()
	rounds := t.roundSpans(spanRound)
	refs, g := t.groups()
	var jobs []int
	var selfNS float64
	lastStart := make(map[int32]int64)
	byName := make(map[spanName][]int)
	var perCycle []float64
	for _, ref := range refs {
		ids := g[ref]
		job, run := -1, -1
		for _, i := range ids {
			switch t.spans[i].name {
			case spanCall:
				job = i
			case spanSimRun:
				run = i
			}
		}
		if run < 0 {
			continue // a store hit, not a simulation
		}
		var children []int
		for _, i := range ids {
			if i != job {
				children = append(children, i)
			}
		}
		if job < 0 {
			job = t.envelope(spanJob, children)
		}
		if r, ok := rounds[ref.round]; ok {
			t.spans[job].parent = int32(r)
		}
		for _, c := range children {
			t.spans[c].parent = int32(job)
			byName[t.spans[c].name] = append(byName[t.spans[c].name], c)
		}
		jobs = append(jobs, job)
		selfNS += float64(t.spans[job].dur()) - t.sum(children)
		lastStart[ref.round] = max(lastStart[ref.round], t.spans[job].start)
		if cyc := t.smCycles[ref]; cyc > 0 {
			perCycle = append(perCycle, float64(t.spans[run].dur())/float64(cyc))
		}
	}
	jobNS := t.sum(jobs)
	var roundNS float64
	var tails []float64
	for r, i := range rounds {
		roundNS += float64(t.spans[i].dur())
		if s, ok := lastStart[r]; ok {
			tails = append(tails, float64(t.spans[i].end-s)/1e6)
		}
	}
	var smCycles float64
	for _, c := range t.smCycles {
		smCycles += float64(c)
	}
	jd := t.durs(jobs)
	m.set("core.jobs", float64(len(jobs)))
	m.setN("core.job_ms_p50", median(jd), len(jd))
	if len(jd) > 0 {
		m.setN("core.job_ms_max", jd[len(jd)-1], len(jd))
	}
	m.set("core.busy_frac", ratio(jobNS, roundNS*float64(nproc)))
	tails = sorted(tails)
	m.setN("core.tail_ms", median(tails), len(tails))
	m.set("core.self_share", ratio(selfNS, jobNS))
	t.p50(m, "sim.setup_ms_p50", byName[spanSimSetup])
	m.set("sim.setup_share", ratio(t.sum(byName[spanSimSetup]), jobNS))
	t.p50(m, "sim.run_ms_p50", byName[spanSimRun])
	m.set("sim.run_ns_per_sm_cycle", ratio(t.sum(byName[spanSimRun]), smCycles))
	perCycle = sorted(perCycle)
	m.setN("sim.run_ns_per_sm_cycle_p50", median(perCycle), len(perCycle))
	t.storeLayers(m, byName, jobNS)
}

// storeLayers sets the store's per-layer metrics from its spans, with the
// shares taken of jobNS, the total time of the workload's per-report spans.
func (t *tracer) storeLayers(m metrics, byName map[spanName][]int, jobNS float64) {
	t.p50(m, "store.read_ms_p50", byName[spanRead])
	t.p50(m, "store.write_ms_p50", byName[spanWrite])
	t.p50(m, "store.rename_ms_p50", byName[spanRename])
	commit := t.sum(byName[spanMkdir]) + t.sum(byName[spanWrite]) + t.sum(byName[spanRename])
	m.set("store.commit_share", ratio(commit, jobNS))
	m.set("store.read_share", ratio(t.sum(byName[spanRead]), jobNS))
}

// replayLayers derives the per-layer metrics of the store replay. Each
// cell's sweep.cell span is recorded at the sweep engine's Progress callback
// and here stretched back to the start of the cell's store read, so the part
// of it outside the read is verification, decoding and aggregation.
func (t *tracer) replayLayers(m metrics) {
	passes := t.roundSpans(spanPass)
	refs, g := t.groups()
	var cells, reads []int
	for _, ref := range refs {
		cell := -1
		var rs []int
		for _, i := range g[ref] {
			switch t.spans[i].name {
			case spanCell:
				cell = i
			case spanRead:
				rs = append(rs, i)
			}
		}
		if cell < 0 {
			continue
		}
		for _, r := range rs {
			t.spans[cell].start = min(t.spans[cell].start, t.spans[r].start)
			t.spans[r].parent = int32(cell)
		}
		if p, ok := passes[ref.round]; ok {
			t.spans[cell].parent = int32(p)
		}
		cells = append(cells, cell)
		reads = append(reads, rs...)
	}
	var passIDs []int
	for _, i := range passes {
		passIDs = append(passIDs, i)
	}
	cellNS := t.sum(cells)
	t.p50(m, "sweep.pass_ms_p50", passIDs)
	m.set("sweep.decode_share", ratio(cellNS-t.sum(reads), cellNS))
	t.storeLayers(m, map[spanName][]int{spanRead: reads}, cellNS)
}

// serviceLayers files each store span under the serve.job span it happened
// in and sets serve.store_commit_ms_p50, the median per job of the time its
// report took to commit.
func (t *tracer) serviceLayers(m metrics) {
	t.attributeMkdirs()
	jobs := make(map[hash][]int)
	for _, i := range t.named(spanServeJob) {
		jobs[t.spans[i].job] = append(jobs[t.spans[i].job], i)
	}
	commit := make(map[hash]float64)
	for i := range t.spans {
		s := &t.spans[i]
		if !s.name.store() || s.job == (hash{}) {
			continue
		}
		for _, j := range jobs[s.job] {
			if p := t.spans[j]; s.start >= p.start && s.end <= p.end {
				s.parent = int32(j)
				break
			}
		}
		// The store serves every job; only a traced job's spans count.
		if s.parent >= 0 && s.name != spanRead {
			commit[s.job] += float64(s.dur()) / 1e6
		}
	}
	xs := make([]float64, 0, len(commit))
	for _, v := range commit {
		xs = append(xs, v)
	}
	xs = sorted(xs)
	m.setN("serve.store_commit_ms_p50", median(xs), len(xs))
}

// checkNesting verifies the span tree: every child lies within its parent,
// and the children of a job (which run one after another on one goroutine)
// add up to no more than the job.
func (t *tracer) checkNesting() error {
	children := make(map[int32]float64)
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent < 0 {
			continue
		}
		p := &t.spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("trace: span %d (%s) lies outside its parent %d (%s)", i, s.name, s.parent, p.name)
		}
		children[s.parent] += float64(s.dur())
	}
	for id, sum := range children {
		if p := &t.spans[id]; (p.name == spanJob || p.name == spanCall) && sum > float64(p.dur()) {
			return fmt.Errorf("trace: children of %s %d add up to %.0f ns, more than its %d ns", p.name, id, sum, p.dur())
		}
	}
	return nil
}

// jsonSpan is a span as the trace file carries it.
type jsonSpan struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Job    string `json:"job,omitempty"`
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	out := make([]jsonSpan, len(t.spans))
	for i, s := range t.spans {
		out[i] = jsonSpan{ID: i, Name: s.name.String(), Start: s.start, End: s.end, Parent: s.parent}
		if s.job != (hash{}) {
			out[i].Job = hex.EncodeToString(s.job[:])
		}
	}
	data, err := json.Marshal(struct {
		Spans []jsonSpan `json:"spans"`
	}{out})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
