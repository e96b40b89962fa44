package trace

import (
	"strings"
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/gating"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
)

func recordRun(t *testing.T, gate config.GatingKind, from, to int64) *Recorder {
	t.Helper()
	cfg := config.Small()
	cfg.NumSMs = 1
	cfg.Scheduler = config.SchedGATES
	cfg.Gating = gate
	cfg.MaxCycles = int(to) + 1000
	k := kernels.MustBenchmark("hotspot").Scale(0.2)
	gpu, err := sim.NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(0, from, to)
	r.Attach(gpu)
	gpu.Run()
	return r
}

func TestRecorderCapturesWindow(t *testing.T) {
	r := recordRun(t, config.GateCoordBlackout, 100, 300)
	lanes := r.Lanes()
	if len(lanes) != 6 {
		t.Fatalf("lanes = %d, want 6 (INT0 INT1 FP0 FP1 SFU LDST)", len(lanes))
	}
	for _, l := range lanes {
		if got := len(r.Samples(l)); got != 200 {
			t.Fatalf("lane %s has %d samples, want 200", l, got)
		}
	}
}

func TestRecorderIgnoresOtherSMs(t *testing.T) {
	cfg := config.Small()
	cfg.NumSMs = 2
	cfg.MaxCycles = 2000
	k := kernels.MustBenchmark("nw").Scale(0.2)
	gpu, err := sim.NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(1, 0, 500)
	r.Attach(gpu)
	gpu.Run()
	// Only SM 1 contributes; lane count unchanged, and issues belong to the
	// traced window.
	if len(r.Lanes()) != 6 {
		t.Fatalf("lanes = %d", len(r.Lanes()))
	}
	for _, ev := range r.Issues() {
		if ev.Cycle < 0 || ev.Cycle >= 500 {
			t.Fatalf("issue outside window at cycle %d", ev.Cycle)
		}
	}
}

func TestWaveformRendering(t *testing.T) {
	r := recordRun(t, config.GateCoordBlackout, 0, 160)
	wf := r.Waveform(80)
	for _, want := range []string{"INT0", "FP1", "SFU", "LDST", "cycle 0", "cycle 80"} {
		if !strings.Contains(wf, want) {
			t.Fatalf("waveform missing %q:\n%s", want, wf)
		}
	}
	// Busy cycles must appear somewhere in a 160-cycle window of hotspot.
	if !strings.Contains(wf, "#") {
		t.Fatal("waveform shows no busy cycles")
	}
}

func TestGlyphMapping(t *testing.T) {
	cases := []struct {
		s    Sample
		want byte
	}{
		{Sample{Busy: true, State: gating.StActive}, '#'},
		{Sample{State: gating.StActive}, '.'},
		{Sample{State: gating.StUncompensated}, 'u'},
		{Sample{State: gating.StCompensated}, 'C'},
		{Sample{State: gating.StWakeup}, 'w'},
	}
	for _, c := range cases {
		if got := c.s.Glyph(); got != c.want {
			t.Errorf("glyph(%+v) = %c, want %c", c.s, got, c.want)
		}
	}
}

func TestFractions(t *testing.T) {
	r := recordRun(t, config.GateCoordBlackout, 0, 2000)
	var sawGated bool
	for _, l := range r.Lanes() {
		g := r.GatedFraction(l)
		b := r.BusyFraction(l)
		if g < 0 || g > 1 || b < 0 || b > 1 {
			t.Fatalf("lane %s fractions out of range: gated=%v busy=%v", l, g, b)
		}
		if g > 0 {
			sawGated = true
		}
	}
	if !sawGated {
		t.Fatal("no lane ever gated under Coordinated Blackout")
	}
	// Unknown lane yields zeros.
	if r.GatedFraction(Lane{Class: isa.INT, Cluster: 9}) != 0 {
		t.Fatal("unknown lane should report 0")
	}
}

func TestNoGatingTraceIsCleanOfGatedStates(t *testing.T) {
	r := recordRun(t, config.GateNone, 0, 1000)
	for _, l := range r.Lanes() {
		if r.GatedFraction(l) != 0 {
			t.Fatalf("lane %s gated under GateNone", l)
		}
	}
}

func TestRecorderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty window accepted")
		}
	}()
	NewRecorder(0, 10, 10)
}

func TestLaneString(t *testing.T) {
	if (Lane{Class: isa.INT, Cluster: 1}).String() != "INT1" {
		t.Fatal("INT lane name wrong")
	}
	if (Lane{Class: isa.SFU}).String() != "SFU" {
		t.Fatal("SFU lane name wrong")
	}
}

// glyphToSample is the inverse of Sample.Glyph on its reachable range (a busy
// sample always renders '#' regardless of state, so '#' maps back to
// busy/Active — the invariant checker separately guarantees a busy lane is
// always powered).
func glyphToSample(g byte) (Sample, bool) {
	switch g {
	case '#':
		return Sample{Busy: true, State: gating.StActive}, true
	case '.':
		return Sample{State: gating.StActive}, true
	case 'u':
		return Sample{State: gating.StUncompensated}, true
	case 'C':
		return Sample{State: gating.StCompensated}, true
	case 'w':
		return Sample{State: gating.StWakeup}, true
	}
	return Sample{}, false
}

func TestGlyphRoundTrip(t *testing.T) {
	for _, s := range []Sample{
		{Busy: true, State: gating.StActive},
		{Busy: false, State: gating.StActive},
		{Busy: false, State: gating.StUncompensated},
		{Busy: false, State: gating.StCompensated},
		{Busy: false, State: gating.StWakeup},
	} {
		back, ok := glyphToSample(s.Glyph())
		if !ok {
			t.Fatalf("glyph %q not parseable", s.Glyph())
		}
		if back != s {
			t.Fatalf("sample %+v round-tripped to %+v via %q", s, back, s.Glyph())
		}
	}
}

func TestWaveformRoundTripsSamples(t *testing.T) {
	// Parse the rendered waveform back and compare glyph-for-glyph with the
	// recorded samples: the renderer must neither drop, reorder nor invent
	// cycles. Width 64 forces multiple chunked rows.
	r := recordRun(t, config.GateCoordBlackout, 100, 400)
	wf := r.Waveform(64)
	parsed := make(map[string][]byte)
	for _, line := range strings.Split(wf, "\n") {
		if line == "" || strings.HasPrefix(line, "SM ") || strings.HasPrefix(line, "cycle ") {
			continue
		}
		name := strings.TrimRight(line[:6], " ")
		parsed[name] = append(parsed[name], line[6:]...)
	}
	if len(parsed) != len(r.Lanes()) {
		t.Fatalf("waveform has %d lanes, recorder %d", len(parsed), len(r.Lanes()))
	}
	for _, l := range r.Lanes() {
		ss := r.Samples(l)
		glyphs := parsed[l.String()]
		if len(glyphs) != len(ss) {
			t.Fatalf("lane %s: %d glyphs vs %d samples", l, len(glyphs), len(ss))
		}
		for i, g := range glyphs {
			back, ok := glyphToSample(g)
			if !ok {
				t.Fatalf("lane %s cycle %d: unknown glyph %q", l, i, g)
			}
			want := ss[i]
			if back.Busy != want.Busy {
				t.Fatalf("lane %s cycle %d: glyph %q busy=%v, sample busy=%v", l, i, g, back.Busy, want.Busy)
			}
			if !want.Busy && back.State != want.State {
				t.Fatalf("lane %s cycle %d: glyph %q state=%v, sample state=%v", l, i, g, back.State, want.State)
			}
		}
	}
}

func TestFractionsMatchSampleCounts(t *testing.T) {
	// GatedFraction and BusyFraction are summaries of the same sample stream
	// the waveform renders; recompute both from Samples and compare exactly.
	r := recordRun(t, config.GateCoordBlackout, 100, 400)
	for _, l := range r.Lanes() {
		ss := r.Samples(l)
		var busy, gated int
		for _, s := range ss {
			if s.Busy {
				busy++
			}
			if s.State == gating.StUncompensated || s.State == gating.StCompensated {
				gated++
			}
		}
		if got, want := r.BusyFraction(l), float64(busy)/float64(len(ss)); got != want {
			t.Fatalf("lane %s BusyFraction %v, samples say %v", l, got, want)
		}
		if got, want := r.GatedFraction(l), float64(gated)/float64(len(ss)); got != want {
			t.Fatalf("lane %s GatedFraction %v, samples say %v", l, got, want)
		}
	}
}

func TestFractionsEmptyLane(t *testing.T) {
	r := NewRecorder(0, 0, 10)
	ghost := Lane{Class: isa.SFU}
	if r.GatedFraction(ghost) != 0 || r.BusyFraction(ghost) != 0 {
		t.Fatal("fractions of an untraced lane should be 0")
	}
}
