package sim

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// sampleCorpusCfg is the validated sampling operating point: 1000-cycle
// detailed windows every 5000 cycles (20% detail) with the sampler's 3-period
// warm-up, on scale-2.0 workloads whose runs are long enough (>= 60k device
// cycles) for the warm-up and the paced splices to amortize. This is the
// configuration EXPERIMENTS.md documents; the error ceiling asserted below
// holds here, not at arbitrary (detail, period, scale) choices — short runs
// lean on cold-cache windows and degrade (see the sampler package comment).
func sampleCorpusCfg(sched config.SchedulerKind, gate config.GatingKind, adaptive bool) config.Config {
	cfg := config.Small()
	cfg.NumSMs = 4
	cfg.Scheduler = sched
	cfg.Gating = gate
	cfg.AdaptiveIdleDetect = adaptive
	return cfg
}

var sampleCorpusCombos = []struct {
	sched    config.SchedulerKind
	gate     config.GatingKind
	adaptive bool
}{
	{config.SchedTwoLevel, config.GateNone, false},
	{config.SchedTwoLevel, config.GateConventional, false},
	{config.SchedGATES, config.GateCoordBlackout, true},
}

// samplingBlock is the part of a report the sampler stamps, compared whole
// across the codec round trip.
type samplingBlock struct {
	sampled      bool
	detailCycles int64
	skippedInstr uint64
	skippedCTAs  int
	errorEst     float64
}

func samplingOf(r *Report) samplingBlock {
	return samplingBlock{r.Sampled, r.SampledDetailCycles, r.SampledSkippedInstrs, r.SampledSkippedCTAs, r.SampleErrorEst}
}

// sampleCorpusBenches are the corpus benchmarks; with sampleCorpusCombos they
// make the 15 corpus cells.
var sampleCorpusBenches = []string{"nw", "hotspot", "mri", "bfs", "kmeans"}

// corpusCell is one corpus cell, run detailed or sampled.
type corpusCell struct {
	bench   string
	combo   int // index into sampleCorpusCombos
	sampled bool
}

func (c corpusCell) name() string {
	cb := sampleCorpusCombos[c.combo]
	return fmt.Sprintf("%s/%s/%s", c.bench, cb.sched, cb.gate)
}

// corpusRun is a finished corpus run and its wall time.
type corpusRun struct {
	rep  *Report
	wall time.Duration
}

// corpusRuns memoizes corpus runs, so the sampled-mode tests below simulate
// each cell once per mode per test binary: the error-bound test runs every
// cell detailed and sampled, and the round-trip and determinism tests reuse
// its sampled reports.
var (
	corpusMu   sync.Mutex
	corpusRuns = map[corpusCell]corpusRun{}
)

// runCorpus returns c's run at scale 2.0, simulating it on first use with
// plain NewGPU(...).Run(): no probe or issue tracer, whose digests these
// tests do not read. Sampled runs use the validated 1000/5000 window.
func runCorpus(t *testing.T, c corpusCell) corpusRun {
	t.Helper()
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if r, ok := corpusRuns[c]; ok {
		return r
	}
	cb := sampleCorpusCombos[c.combo]
	cfg := sampleCorpusCfg(cb.sched, cb.gate, cb.adaptive)
	if c.sampled {
		cfg.SampleDetailCycles = 1000
		cfg.SamplePeriod = 5000
	}
	t0 := time.Now()
	gpu, err := NewGPU(cfg, kernels.MustBenchmark(c.bench).Scale(2.0))
	if err != nil {
		t.Fatalf("%s: NewGPU: %v", c.name(), err)
	}
	r := corpusRun{rep: gpu.Run()}
	r.wall = time.Since(t0)
	if r.rep.RanOut {
		t.Fatalf("%s (sampled=%t) ran out at cycle %d", c.name(), c.sampled, r.rep.Cycles)
	}
	corpusRuns[c] = r
	return r
}

func encodeReport(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := EncodeReport(r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

// TestSampledModeCorpusErrorBound runs the golden corpus (benchmark ×
// scheduler/gating combos) at scale 2.0 both detailed and sampled at the
// validated operating point. Each row asserts, against its own detailed
// reference:
//
//   - |sampled - detailed| cycle error <= 5% (EXPERIMENTS.md's ceiling);
//   - IssuedTotal and CTAsCompleted equal (the sampler conserves both by
//     construction);
//   - the run sampled (Sampled set, CTAs spliced): a sampler that silently
//     degrades to a full detailed run would pass any error bound;
//   - SampleErrorEst <= 15% (the estimate budget) and >= the realized error
//     (the estimate is documented as conservative).
//
// Over the corpus, the detailed runs must simulate at least 3× the device
// cycles the sampled runs do. That ratio is deterministic; the wall-clock
// ratio, which another process on the same cores can move, is logged and
// only held to a 2× floor that catches regressed splice pacing.
func TestSampledModeCorpusErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-2.0 detailed references are slow; skipped with -short")
	}
	var (
		detCycles, smpCycles     int64
		detWall, smpWall         time.Duration
		worstErr, worstEst       float64
		worstErrRow, worstEstRow string
	)
	for _, bench := range sampleCorpusBenches {
		for ci := range sampleCorpusCombos {
			name := corpusCell{bench: bench, combo: ci}.name()
			t.Run(name, func(t *testing.T) {
				d := runCorpus(t, corpusCell{bench, ci, false})
				s := runCorpus(t, corpusCell{bench, ci, true})
				det, smp := d.rep, s.rep
				detCycles += det.Cycles
				smpCycles += smp.SampledDetailCycles
				detWall += d.wall
				smpWall += s.wall

				realized := math.Abs(float64(smp.Cycles-det.Cycles)) / float64(det.Cycles)
				if realized > worstErr {
					worstErr, worstErrRow = realized, name
				}
				if smp.SampleErrorEst > worstEst {
					worstEst, worstEstRow = smp.SampleErrorEst, name
				}
				t.Logf("detailed=%8d sampled=%8d err=%+.2f%% est=%.2f%% detailCycles=%d skippedCTAs=%d",
					det.Cycles, smp.Cycles, float64(smp.Cycles-det.Cycles)/float64(det.Cycles)*100,
					smp.SampleErrorEst*100, smp.SampledDetailCycles, smp.SampledSkippedCTAs)

				if !smp.Sampled {
					t.Error("sampled run did not set Report.Sampled")
				}
				if smp.SampledSkippedCTAs == 0 {
					t.Error("sampled run spliced no CTAs — degenerated to a detailed run")
				}
				if smp.IssuedTotal != det.IssuedTotal {
					t.Errorf("IssuedTotal not conserved: sampled %d detailed %d", smp.IssuedTotal, det.IssuedTotal)
				}
				if smp.CTAsCompleted != det.CTAsCompleted {
					t.Errorf("CTAsCompleted not conserved: sampled %d detailed %d", smp.CTAsCompleted, det.CTAsCompleted)
				}
				if realized > 0.05 {
					t.Errorf("cycle error %.2f%% exceeds the 5%% bound", realized*100)
				}
				if smp.SampleErrorEst > 0.15 {
					t.Errorf("error estimate %.2f%% exceeds the 15%% estimate budget", smp.SampleErrorEst*100)
				}
				if smp.SampleErrorEst < realized {
					t.Errorf("error estimate %.2f%% is below the realized error %.2f%%",
						smp.SampleErrorEst*100, realized*100)
				}
			})
		}
	}

	if smpCycles == 0 || smpWall == 0 {
		t.Fatal("no sampled row completed")
	}
	ratio := float64(detCycles) / float64(smpCycles)
	wall := float64(detWall) / float64(smpWall)
	t.Logf("corpus: %.3fx cycles (detailed %d, sampled %d), %.2fx wall (detailed %v, sampled %v)",
		ratio, detCycles, smpCycles, wall, detWall.Round(time.Millisecond), smpWall.Round(time.Millisecond))
	t.Logf("worst |dCycles|/Cycles = %.2f%% (%s), largest estimate %.2f%% (%s)",
		worstErr*100, worstErrRow, worstEst*100, worstEstRow)
	// The ratio reads 3.25x over the corpus.
	if ratio < 3.0 {
		t.Errorf("sampled runs simulate only %.2fx fewer cycles than detailed, want >= 3x", ratio)
	}
	if wall < 2 {
		t.Errorf("sampled corpus only %.2fx faster than detailed — splice pacing regressed", wall)
	}
}

// TestSampledReportRoundTrip pins that the sampling metadata survives the
// store codec (the fields are additive on the v1 envelope; a full run's
// all-zero sampling block is what old blobs decode to), for every sampled
// corpus cell.
func TestSampledReportRoundTrip(t *testing.T) {
	for _, bench := range sampleCorpusBenches {
		for ci := range sampleCorpusCombos {
			c := corpusCell{bench, ci, true}
			t.Run(c.name(), func(t *testing.T) {
				rep := runCorpus(t, c).rep
				if !rep.Sampled || rep.SampledSkippedCTAs == 0 {
					t.Fatalf("run did not sample: %+v", samplingOf(rep))
				}
				got, err := DecodeReport(encodeReport(t, rep))
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if samplingOf(got) != samplingOf(rep) {
					t.Errorf("sampling block lost in the codec round trip:\ngot  %+v\nwant %+v",
						samplingOf(got), samplingOf(rep))
				}
			})
		}
	}
}

// TestSampledRunDeterministic pins that a sampled run is a pure function of
// its configuration: a second run of the bfs GATES/CoordBlackout cell
// (adaptive idle detect) encodes to the same bytes as the first (the
// sampler's splice decisions depend only on the deterministic serial
// engine's counters).
func TestSampledRunDeterministic(t *testing.T) {
	c := corpusCell{bench: "bfs", combo: 2, sampled: true}
	first := encodeReport(t, runCorpus(t, c).rep)
	corpusMu.Lock()
	delete(corpusRuns, c)
	corpusMu.Unlock()
	again := encodeReport(t, runCorpus(t, c).rep)
	if !bytes.Equal(first, again) {
		t.Fatalf("%s: sampled runs differ between invocations:\n%s\n----\n%s", c.name(), first, again)
	}
}
