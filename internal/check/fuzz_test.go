package check_test

// FuzzBuilderCheckedSim drives kernels.Builder with randomized-but-valid
// profiles and runs each generated kernel through a full checked simulation:
// whatever instruction mix, dependence shape and occupancy the fuzzer
// invents, every cycle-level invariant must hold. The seed corpus makes this
// a deterministic table test under plain `go test`; `go test -fuzz` explores
// further.

import (
	"testing"

	"warpedgates/internal/check"
	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/stats"
)

// fuzzProfile maps arbitrary fuzz bytes onto a valid Profile: the four mix
// weights are normalized to sum exactly to 1, and every shape parameter is
// clamped into its legal range by deterministic derivation from seed.
func fuzzProfile(seed uint64, wInt, wFP, wSFU, wLDST uint8) kernels.Profile {
	total := int(wInt) + int(wFP) + int(wSFU) + int(wLDST)
	if total == 0 {
		wInt, total = 1, 1
	}
	fInt := float64(wInt) / float64(total)
	fFP := float64(wFP) / float64(total)
	fSFU := float64(wSFU) / float64(total)
	fLDST := 1 - fInt - fFP - fSFU // kills float rounding in the sum
	if fLDST < 0 {
		fLDST = 0
	}
	rng := stats.NewSplitMix64(seed)
	conc := 1 + rng.Intn(4)
	return kernels.Profile{
		Name:     "fuzz",
		FracINT:  fInt,
		FracFP:   fFP,
		FracSFU:  fSFU,
		FracLDST: fLDST,

		BodyLen:    8 + rng.Intn(120),
		Iterations: 1 + rng.Intn(4),
		DepWindow:  1 + rng.Intn(9),
		LoadUseGap: rng.Intn(8),

		SharedFrac:   rng.Float64() * 0.6,
		StoreFrac:    rng.Float64() * 0.5,
		Pattern:      isa.AccessPattern(rng.Intn(4)),
		RandomFrac:   rng.Float64() * 0.5,
		WorkingLines: 16 << rng.Intn(6),
		NumRegions:   1 + rng.Intn(4),

		IMulFrac: rng.Float64() * 0.3,
		FDivFrac: rng.Float64() * 0.3,

		WarpsPerCTA:       1 + rng.Intn(8),
		MaxConcurrentCTAs: conc,
		CTAsPerSM:         conc + rng.Intn(3),
	}
}

func FuzzBuilderCheckedSim(f *testing.F) {
	// Seed corpus: one mix extreme per class, a balanced mix, and one entry
	// per gating policy / scheduler pairing worth exercising.
	f.Add(uint64(1), uint8(255), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(0), uint8(255), uint8(0), uint8(0), uint8(1))
	f.Add(uint64(3), uint8(0), uint8(0), uint8(255), uint8(0), uint8(2))
	f.Add(uint64(4), uint8(0), uint8(0), uint8(0), uint8(255), uint8(3))
	f.Add(uint64(5), uint8(64), uint8(64), uint8(16), uint8(64), uint8(4))
	f.Add(uint64(6), uint8(120), uint8(60), uint8(0), uint8(40), uint8(5))
	f.Add(uint64(7), uint8(40), uint8(120), uint8(8), uint8(60), uint8(6))
	f.Add(uint64(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(7))

	f.Fuzz(func(t *testing.T, seed uint64, wInt, wFP, wSFU, wLDST, variant uint8) {
		p := fuzzProfile(seed, wInt, wFP, wSFU, wLDST)
		k, err := p.Build()
		if err != nil {
			t.Fatalf("fuzzProfile produced an invalid profile: %v", err)
		}

		cfg := config.Small()
		cfg.NumSMs = 1
		// A hard stop so a pathological profile cannot hang the fuzzer; the
		// checker skips only the drain-conservation law when it trips.
		cfg.MaxCycles = 200000
		// The variant byte picks the scheduler/gating pairing, covering all
		// policies including the adaptive and aux-blackout paths.
		switch variant % 8 {
		case 0:
			cfg.Scheduler, cfg.Gating = config.SchedTwoLevel, config.GateNone
		case 1:
			cfg.Scheduler, cfg.Gating = config.SchedTwoLevel, config.GateConventional
		case 2:
			cfg.Scheduler, cfg.Gating = config.SchedTwoLevel, config.GateNaiveBlackout
		case 3:
			cfg.Scheduler, cfg.Gating = config.SchedTwoLevel, config.GateCoordBlackout
		case 4:
			cfg.Scheduler, cfg.Gating = config.SchedGATES, config.GateCoordBlackout
		case 5:
			cfg.Scheduler, cfg.Gating = config.SchedGATES, config.GateCoordBlackout
			cfg.AdaptiveIdleDetect = true
		case 6:
			cfg.Scheduler, cfg.Gating = config.SchedGATES, config.GateNaiveBlackout
			cfg.BlackoutAux = true
		case 7:
			cfg.Scheduler, cfg.Gating = config.SchedTwoLevel, config.GateConventional
			cfg.WakeupDelay = 0
		}

		rep, c, err := check.Run(cfg, k)
		if err != nil {
			t.Fatalf("invariant violation on fuzzed kernel %+v under %s/%s:\n%v",
				p, cfg.Scheduler, cfg.Gating, err)
		}
		if !rep.RanOut && c.Checks() == 0 {
			t.Fatal("checked simulation performed zero invariant evaluations")
		}
	})
}
