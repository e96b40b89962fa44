package sim

import (
	"bytes"
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
	sched config.SchedulerKind
	gate  config.GatingKind
}{
	{config.SchedLRR, config.GateNone},
	{config.SchedTwoLevel, config.GateConventional},
	{config.SchedGATES, config.GateCoordBlackout},
}

// TestSampledModeCorpusErrorBound runs the golden corpus (benchmark ×
// scheduler/gating combos) at scale 2.0 both detailed and sampled at the
// validated operating point, and asserts for every cell:
//
//   - |sampled - detailed| cycle error <= 5% (measured worst 2.5%; the
//     ceiling leaves 2x headroom and is what EXPERIMENTS.md documents),
//   - IssuedTotal and CTAsCompleted match the detailed run exactly (the
//     sampler conserves both by construction),
//   - the run actually sampled (Sampled set, CTAs spliced) — a sampler that
//     silently degrades to a full detailed run would pass any error bound.
//
// It also records the corpus-wide wall-clock speedup; the hard >= 3x
// assertion lives in the sweep engine's speedup test where the comparison is
// made per sweep, but a sampled corpus slower than ~2x detailed here means
// the splice pacing regressed, so a soft floor is asserted too.
func TestSampledModeCorpusErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus detailed references are slow; skipped with -short")
	}
	var worst float64
	var detWall, smpWall time.Duration
	for _, bench := range []string{"nw", "hotspot", "mri", "bfs", "kmeans"} {
		for ci, cb := range sampleCorpusCombos {
			k := kernels.MustBenchmark(bench).Scale(2.0)
			cfg := sampleCorpusCfg(cb.sched, cb.gate, ci == 2)
			t0 := time.Now()
			det, _, _ := runDigests(t, cfg, k, false)
			detWall += time.Since(t0)

			scfg := cfg
			scfg.SampleDetailCycles = 1000
			scfg.SamplePeriod = 5000
			t0 = time.Now()
			smp, _, _ := runDigests(t, scfg, k, false)
			smpWall += time.Since(t0)

			if det.RanOut || smp.RanOut {
				t.Fatalf("%s combo %d ran out", bench, ci)
			}
			if !smp.Sampled {
				t.Errorf("%s combo %d: sampled run did not set Report.Sampled", bench, ci)
			}
			if smp.SampledSkippedCTAs == 0 {
				t.Errorf("%s combo %d: sampled run spliced no CTAs — degenerated to a detailed run", bench, ci)
			}
			if smp.IssuedTotal != det.IssuedTotal {
				t.Errorf("%s combo %d: IssuedTotal not conserved: sampled %d detailed %d",
					bench, ci, smp.IssuedTotal, det.IssuedTotal)
			}
			if smp.CTAsCompleted != det.CTAsCompleted {
				t.Errorf("%s combo %d: CTAsCompleted not conserved: sampled %d detailed %d",
					bench, ci, smp.CTAsCompleted, det.CTAsCompleted)
			}
			diff := float64(smp.Cycles-det.Cycles) / float64(det.Cycles)
			if diff < 0 {
				diff = -diff
			}
			if diff > worst {
				worst = diff
			}
			t.Logf("%-8s sched=%d gate=%d: detailed=%8d sampled=%8d err=%+.2f%% est=%.2f%% skippedCTAs=%d",
				bench, cb.sched, cb.gate, det.Cycles, smp.Cycles,
				float64(smp.Cycles-det.Cycles)/float64(det.Cycles)*100,
				smp.SampleErrorEst*100, smp.SampledSkippedCTAs)
		}
	}
	t.Logf("worst |dCycles|/Cycles = %.2f%%, wall detailed=%v sampled=%v (%.2fx)",
		worst*100, detWall.Round(time.Millisecond), smpWall.Round(time.Millisecond),
		float64(detWall)/float64(smpWall))
	if worst > 0.05 {
		t.Errorf("sampled-mode corpus error %.2f%% exceeds the 5%% bound", worst*100)
	}
	if detWall < 2*smpWall {
		t.Errorf("sampled corpus only %.2fx faster than detailed — splice pacing regressed",
			float64(detWall)/float64(smpWall))
	}
}

// TestSampledRunDeterministic pins that a sampled run is a pure function of
// its configuration: two runs of the same cell produce byte-identical encoded
// reports (the sampler's splice decisions depend only on the deterministic
// serial engine's counters).
func TestSampledRunDeterministic(t *testing.T) {
	k := kernels.MustBenchmark("bfs").Scale(2.0)
	cfg := sampleCorpusCfg(config.SchedGATES, config.GateCoordBlackout, true)
	cfg.SampleDetailCycles = 1000
	cfg.SamplePeriod = 5000
	var blobs [2][]byte
	for i := range blobs {
		rep, _, _ := runDigests(t, cfg, k, false)
		b, err := EncodeReport(rep)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		blobs[i] = b
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("sampled runs differ between invocations:\n%s\n----\n%s", blobs[0], blobs[1])
	}
}

// TestSampledReportRoundTrip pins that the sampling metadata survives the
// store codec (the fields are additive on the v1 envelope; a full run's
// all-zero sampling block is what old blobs decode to).
func TestSampledReportRoundTrip(t *testing.T) {
	k := kernels.MustBenchmark("kmeans").Scale(2.0)
	cfg := sampleCorpusCfg(config.SchedLRR, config.GateNone, false)
	cfg.SampleDetailCycles = 1000
	cfg.SamplePeriod = 5000
	rep, _, _ := runDigests(t, cfg, k, false)
	if !rep.Sampled || rep.SampledSkippedCTAs == 0 {
		t.Fatalf("run did not sample: %+v", rep)
	}
	b, err := EncodeReport(rep)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeReport(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Sampled != rep.Sampled ||
		got.SampledDetailCycles != rep.SampledDetailCycles ||
		got.SampledSkippedInstrs != rep.SampledSkippedInstrs ||
		got.SampledSkippedCTAs != rep.SampledSkippedCTAs ||
		got.SampleErrorEst != rep.SampleErrorEst {
		t.Fatalf("sampling metadata lost in round trip:\ngot  %+v\nwant %+v", got, rep)
	}
}
