package serve

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"testing"

	"warpedgates/internal/core"
	"warpedgates/internal/store"
)

// FuzzJobRequest feeds arbitrary POST /v1/jobs bodies through the request
// decoder and buildJob, seeded with TestAPITable's bodies. Every input must
// end in a 400 or 413, or in a valid job: a configuration that validates, a
// positive finite scale, an id that is the content address of the job's
// canonical key, and no context until the server admits it. Never a panic.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
		smallJob,
		`{"bench":"nosuch","technique":"WarpedGates"}`,
		`{"bench":"hotspot","technique":"Overclock"}`,
		`{"bench":"hotspot","technique":"Baseline","break_even":-1}`,
		`{"bench":"hotspot","technique":"Baseline","sms":16777216}`,
		`{"bench":"hotspot","technique":"Baseline","scale":-2}`,
		`{"bench":"hotspot","technique":"Baseline","max_cycles":7}`,
		`{"bench":`,
		smallJob + ` junk`,
		smallJob + "\n\t ",
		`{"bench":"srad","technique":"WarpedGates","sms":2,"scale":30,"seed":7,"sample_detail":500,"sample_period":2000,"deadline_ms":5}`,
	} {
		f.Add([]byte(body))
	}
	s, err := NewServer(testOptions())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		code, err := decodeRequest(nil, io.NopCloser(bytes.NewReader(body)), &req)
		if err != nil {
			if code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
				t.Fatalf("decode error %v mapped to status %d", err, code)
			}
			return
		}
		j, err := s.buildJob(&req)
		if err != nil {
			return
		}
		if j.ctx != nil {
			t.Fatal("buildJob derived a context for a job it has not admitted")
		}
		if err := j.cfg.Validate(); err != nil {
			t.Fatalf("built job with an invalid config: %v", err)
		}
		if !(j.scale > 0) || math.IsInf(j.scale, 0) {
			t.Fatalf("built job with scale %v", j.scale)
		}
		if j.key != core.JobKey(j.bench, j.cfg, j.scale) || j.id != store.HashKey(j.key) {
			t.Fatalf("job id %s / key %q do not address the job", j.id, j.key)
		}
	})
}

// FuzzSweepRequest feeds arbitrary POST /v1/sweeps bodies through the
// request decoder and buildSweep, seeded with TestSweepValidationTable's
// bodies. Two are swapped for small stand-ins: the 1 MiB padded body is
// left out, and the 220 KB oversized grid becomes a 600-byte one that also
// crosses sweep.MaxGridCells (108 × 100 × 100 cells), since minimizing a
// large seed would eat a short fuzz run. Every input must end in a 400 or
// 413, or in a valid sweep: between one and MaxSweepCells cells, sorted by
// a duplicate-free canonical key, each with a configuration that validates,
// a positive finite scale, an id that is its key's content address and no
// context before admission. Never a panic.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range []string{
		smallSweep,
		`{"benches":["nosuch"]}`,
		`{"benches":["nw"],"shard_index":3,"shard_count":2}`,
		`{"benches":["nw"],"max_cycles":7}`,
		`{"seeds":` + jsonRange(0, 99) + `,"idle_detects":` + jsonRange(0, 99) + `}`,
		smallSweep + `{}`,
		`{"benches":["nw"],"techniques":["Baseline"],"sample_detail":500,"sample_period":500}`,
		`{"benches":["nw"],"techniques":["Baseline"],"sms":[2,16777216]}`,
		`{"benches":["nw","hotspot"],"techniques":["WarpedGates"],"sms":[2,4],"scales":[0.05,0.1],"shard_index":1,"shard_count":3}`,
	} {
		f.Add([]byte(body))
	}
	s, err := NewServer(testOptions())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		code, err := decodeRequest(nil, io.NopCloser(bytes.NewReader(body)), &req)
		if err != nil {
			if code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
				t.Fatalf("decode error %v mapped to status %d", err, code)
			}
			return
		}
		_, jobs, err := s.buildSweep(&req)
		if err != nil {
			return
		}
		if len(jobs) == 0 || len(jobs) > s.opts.MaxSweepCells {
			t.Fatalf("built a sweep of %d cells, limit %d", len(jobs), s.opts.MaxSweepCells)
		}
		for i, j := range jobs {
			if err := j.cfg.Validate(); err != nil {
				t.Fatalf("cell %d has an invalid config: %v", i, err)
			}
			if !(j.scale > 0) || math.IsInf(j.scale, 0) {
				t.Fatalf("cell %d has scale %v", i, j.scale)
			}
			if j.key != core.JobKey(j.bench, j.cfg, j.scale) || j.id != store.HashKey(j.key) {
				t.Fatalf("cell %d id %s / key %q do not address the job", i, j.id, j.key)
			}
			if j.ctx != nil {
				t.Fatalf("cell %d has a context before admission", i)
			}
			if i > 0 && jobs[i-1].key >= j.key {
				t.Fatalf("cells %d and %d are out of order or duplicate: %q, %q", i-1, i, jobs[i-1].key, j.key)
			}
		}
	})
}
