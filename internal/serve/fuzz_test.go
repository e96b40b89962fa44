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
// positive finite scale, and an id that is the content address of the job's
// canonical key. Never a panic.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
		smallJob,
		`{"bench":"nosuch","technique":"WarpedGates"}`,
		`{"bench":"hotspot","technique":"Overclock"}`,
		`{"bench":"hotspot","technique":"Baseline","break_even":-1}`,
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
		defer j.cancel(nil)
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
