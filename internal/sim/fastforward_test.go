package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
)

// reportFingerprint renders every figure-relevant counter of a report (the
// same field set the golden corpus fingerprints in internal/core, which this
// package cannot import) so jumping and fully stepped runs can be compared
// for observable identity.
func reportFingerprint(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d ranout=%t issued=%d", r.Cycles, r.RanOut, r.IssuedTotal)
	fmt.Fprintf(&b, " stalls=%d/%d ctas=%d warpmax=%d warpavg=%g l1=%g",
		r.IssueStallsMem, r.IssueStallsGate, r.CTAsCompleted, r.ActiveWarpMax,
		r.ActiveWarpAvg, r.L1MissRate)
	fmt.Fprintf(&b, " l2=%v", r.L2Stats)
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		d := &r.Domains[c]
		fmt.Fprintf(&b, " %v=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,h%d:%d:%d:%d",
			c, d.BusyCycles, d.IdleCycles, d.PoweredCycles, d.GatedCycles,
			d.UncompCycles, d.CompCycles, d.GatingEvents, d.Wakeups,
			d.NegativeEvents, d.CriticalWakeups, d.DeniedWakeups, d.IssuedInstrs,
			d.IdlePeriods.Total(), d.IdlePeriods.Sum(), d.IdlePeriods.Min(), d.IdlePeriods.Max())
	}
	return b.String()
}

// fnvMix folds v into an FNV-1a style running hash.
func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// runDigests executes cfg/k to completion and returns the report plus
// per-SM digests of the full probe and issue-trace streams.
func runDigests(t *testing.T, cfg config.Config, k *kernels.Kernel) (*Report, []uint64, []uint64) {
	t.Helper()
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatalf("NewGPU: %v", err)
	}
	probeD := make([]uint64, cfg.NumSMs)
	issueD := make([]uint64, cfg.NumSMs)
	for i := range probeD {
		probeD[i] = 14695981039346656037
		issueD[i] = 14695981039346656037
	}
	gpu.SetCycleProbe(func(smID int, cycle int64, lanes []LaneState) {
		h := probeD[smID]
		h = fnvMix(h, uint64(cycle))
		for _, l := range lanes {
			h = fnvMix(h, uint64(l.Class)<<32|uint64(l.Cluster))
			b := uint64(0)
			if l.Busy {
				b = 1
			}
			h = fnvMix(h, b<<8|uint64(l.State))
		}
		probeD[smID] = h
	})
	gpu.SetIssueTracer(func(smID int, cycle int64, warpIdx int, class isa.Class, cluster int) {
		h := issueD[smID]
		h = fnvMix(h, uint64(cycle))
		h = fnvMix(h, uint64(warpIdx)<<16|uint64(class)<<8|uint64(cluster))
		issueD[smID] = h
	})
	return gpu.Run(), probeD, issueD
}

// sameReport compares two reports ignoring the config they ran under (the
// knob under test is the one field allowed to differ).
func sameReport(a, b *Report) bool {
	ca, cb := a.Config, b.Config
	a.Config, b.Config = config.Config{}, config.Config{}
	eq := reflect.DeepEqual(a, b)
	a.Config, b.Config = ca, cb
	return eq
}

// runHashed runs cfg over kernel k with a cycle probe installed, folding every
// per-cycle lane observation into one FNV stream per SM. Within an SM the
// probe fires in strict cycle order whether or not the run jumps, so equal
// digests mean the gating-state timelines are identical cycle for cycle. It
// also renders each SM's memory-port and MSHR counters, which no report
// field carries: a jump books its MSHR refusals in closed form.
func runHashed(t *testing.T, cfg config.Config, k *kernels.Kernel) (*Report, []uint64, []string) {
	t.Helper()
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]interface {
		Write(p []byte) (int, error)
		Sum64() uint64
	}, cfg.NumSMs)
	for i := range hashes {
		hashes[i] = fnv.New64a()
	}
	gpu.SetCycleProbe(func(smID int, cycle int64, lanes []LaneState) {
		var buf [8]byte
		h := hashes[smID]
		binary.LittleEndian.PutUint64(buf[:], uint64(cycle))
		h.Write(buf[:])
		for _, l := range lanes {
			busy := byte(0)
			if l.Busy {
				busy = 1
			}
			h.Write([]byte{byte(l.Class), byte(l.Cluster), busy, byte(l.State)})
		}
	})
	rep := gpu.Run()
	digests := make([]uint64, len(hashes))
	for i, h := range hashes {
		digests[i] = h.Sum64()
	}
	ports := make([]string, len(gpu.SMs()))
	for i, sm := range gpu.SMs() {
		shared, global, stalls := sm.memPort.Stats()
		allocs, merges, full := sm.memPort.MSHRStats()
		ports[i] = fmt.Sprintf("port=%d/%d/%d mshr=%d/%d/%d", shared, global, stalls, allocs, merges, full)
	}
	return rep, digests, ports
}

// TestFastForwardBitExact is the equivalence property test for the
// event-driven step: across randomized schedulers, gating policies, gating
// parameters, MSHR sizes and benchmarks (the memory-bound ones included,
// where warps stall longest on a full MSHR), blackout on the SFU and LDST
// units, and with interval sampling (whose window boundaries cap every jump), a run that jumps and
// ticks lazily must produce the same report, the same per-SM, per-cycle
// gating-state stream and the same per-SM memory-port and MSHR counters as a
// run that steps and ticks every cycle.
func TestFastForwardBitExact(t *testing.T) {
	benchNames := []string{"nw", "hotspot", "bfs", "mri", "btree", "MUM", "gaussian", "lbm"}
	f := func(benchRaw, schedRaw, gateRaw, idRaw, betRaw, wakeRaw, holdRaw, mshrRaw uint8, adaptive, aux, sampled bool) bool {
		cfg := config.Small()
		cfg.Scheduler = []config.SchedulerKind{
			config.SchedLRR, config.SchedTwoLevel, config.SchedGATES,
		}[int(schedRaw)%3]
		cfg.Gating = []config.GatingKind{
			config.GateNone, config.GateConventional,
			config.GateNaiveBlackout, config.GateCoordBlackout,
		}[int(gateRaw)%4]
		cfg.IdleDetect = int(idRaw % 12)
		cfg.BreakEven = 1 + int(betRaw%30)
		cfg.WakeupDelay = int(wakeRaw % 10)
		cfg.GATESMaxHold = int(holdRaw % 5)
		cfg.MSHRPerSM = []int{2, 4, 8, cfg.MSHRPerSM}[int(mshrRaw)%4]
		cfg.AdaptiveIdleDetect = adaptive
		cfg.BlackoutAux = aux
		cfg.MaxCycles = 30000
		if sampled {
			cfg.SampleDetailCycles = 200
			cfg.SamplePeriod = 800
		}

		bench := benchNames[int(benchRaw)%len(benchNames)]
		k := kernels.MustBenchmark(bench).Scale(0.08)

		ffCfg := cfg
		ffCfg.DisableFastForward = false
		stepCfg := cfg
		stepCfg.DisableFastForward = true

		ffRep, ffHash, ffPorts := runHashed(t, ffCfg, k)
		stRep, stHash, stPorts := runHashed(t, stepCfg, k)
		name := fmt.Sprintf("%s %v/%v mshr=%d aux=%t sampled=%t", bench, cfg.Scheduler, cfg.Gating,
			cfg.MSHRPerSM, aux, sampled)
		// The config is part of the report; blank the knob under test before
		// comparing the rest.
		ffRep.Config.DisableFastForward = false
		stRep.Config.DisableFastForward = false
		if a, b := reportFingerprint(ffRep), reportFingerprint(stRep); a != b {
			t.Logf("%s: report drift\n  ff:      %s\n  stepped: %s", name, a, b)
			return false
		}
		for i := range ffHash {
			if ffHash[i] != stHash[i] {
				t.Logf("%s: SM%d probe-stream drift", name, i)
				return false
			}
			if ffPorts[i] != stPorts[i] {
				t.Logf("%s: SM%d memory drift\n  ff:      %s\n  stepped: %s", name, i, ffPorts[i], stPorts[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFarWritebackFastForwardExact runs memory latencies that book every
// DRAM writeback past the retire ring, into each SM's overflow heap, with the
// fast-forward on and off. Both must drain to the same report and per-SM
// streams.
func TestFarWritebackFastForwardExact(t *testing.T) {
	k := kernels.MustBenchmark("lbm").Scale(0.02)
	for _, lat := range []int{3000, 20000} {
		cfg := config.Small()
		cfg.DRAMLatency = lat
		wantRep, wantProbe, wantIssue := runDigests(t, cfg, k)
		if wantRep.RanOut || wantRep.Cycles <= int64(lat) {
			t.Fatalf("DRAMLatency=%d: run took %d cycles (ran out: %v)", lat, wantRep.Cycles, wantRep.RanOut)
		}
		noFF := cfg
		noFF.DisableFastForward = true
		gotRep, gotProbe, gotIssue := runDigests(t, noFF, k)
		if !sameReport(wantRep, gotRep) {
			t.Errorf("DRAMLatency=%d: report diverged\nfast-forward: %v\nstepped:      %v", lat, wantRep, gotRep)
		}
		if !reflect.DeepEqual(wantProbe, gotProbe) || !reflect.DeepEqual(wantIssue, gotIssue) {
			t.Errorf("DRAMLatency=%d: streams diverged", lat)
		}
	}
}

// TestFastForwardActuallySkips guards against the jump silently becoming a
// no-op: memory-bound runs must take far fewer full steps than simulated
// cycles — on a gated GATES machine, on the TwoLevel baseline without
// gating, and under conventional gating, where the LDST unit's gate/wake
// churn while warps wait on a full MSHR is folded into the jumps.
func TestFastForwardActuallySkips(t *testing.T) {
	cases := []struct {
		name     string
		sched    config.SchedulerKind
		gate     config.GatingKind
		adaptive bool
		maxShare float64 // stepped SM-cycles over all SM-cycles
	}{
		{"WarpedGates", config.SchedGATES, config.GateCoordBlackout, true, 1},
		{"Baseline", config.SchedTwoLevel, config.GateNone, false, 0.6},
		{"ConvPG", config.SchedTwoLevel, config.GateConventional, false, 0.6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Small()
			cfg.NumSMs = 1
			cfg.Scheduler = tc.sched
			cfg.Gating = tc.gate
			cfg.AdaptiveIdleDetect = tc.adaptive
			cfg.MaxCycles = 200000
			k := kernels.MustBenchmark("bfs").Scale(0.1)
			gpu, err := NewGPU(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			sm := gpu.SMs()[0]
			calls := 0
			var cyc int64
			for !sm.done() && cyc < int64(cfg.MaxCycles) {
				cyc = sm.step(cyc)
				calls++
			}
			if sm.Stats().Cycles != cyc {
				t.Fatalf("SM cycle accounting: %d counted, clock at %d", sm.Stats().Cycles, cyc)
			}
			share := float64(calls) / float64(cyc)
			t.Logf("cycles=%d step calls=%d (%.1f%% stepped)", cyc, calls, 100*share)
			if int64(calls) >= cyc {
				t.Fatalf("the jump never fired on a memory-bound run: %d step calls for %d cycles", calls, cyc)
			}
			if share > tc.maxShare {
				t.Fatalf("%.1f%% of SM-cycles stepped, want at most %.0f%%", 100*share, 100*tc.maxShare)
			}
		})
	}
}

// TestScheduleRetirePanicsOutsideHorizon pins the retire booking's safety
// check: scheduling a writeback at or before the current cycle must panic
// rather than land in a bucket the SM has already passed.
func TestScheduleRetirePanicsOutsideHorizon(t *testing.T) {
	cfg := config.Small()
	cfg.NumSMs = 1
	k := kernels.MustBenchmark("nw").Scale(0.05)
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	sm := gpu.SMs()[0]
	for _, at := range []int64{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheduleRetire(now=0, at=%d) did not panic", at)
				}
			}()
			sm.scheduleRetire(0, at, sm.warps[0], 1)
		}()
	}
}

// TestScheduleRetireFarFuture books writebacks past the retire ring, into
// the overflow heap, on an SM that has drained and retired its last ring
// writebacks, so it has nothing else to wait for. The horizon must report
// each booking's cycle, the SM must jump straight to it, and the scoreboard
// bit must clear exactly there.
func TestScheduleRetireFarFuture(t *testing.T) {
	cfg := config.Small()
	cfg.NumSMs = 1
	k := kernels.MustBenchmark("nw").Scale(0.05)
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if rep := gpu.Run(); rep.RanOut {
		t.Fatal("run did not drain")
	}
	sm := gpu.SMs()[0]
	for sm.retireCount > 0 {
		sm.step(sm.skipUntil)
	}
	w := sm.warps[0]
	const bit = uint64(1) << 5
	for _, ahead := range []int64{5000, 1 << 20} {
		now := sm.skipUntil
		at := now + ahead
		w.pending |= bit
		sm.scheduleRetire(now, at, w, bit)
		if len(sm.retireFar) != 1 || sm.retireCount != 0 {
			t.Fatalf("%d cycles ahead: %d overflow and %d ring events, want the booking in the overflow heap",
				ahead, len(sm.retireFar), sm.retireCount)
		}
		if h := sm.horizon(now); h != at {
			t.Fatalf("%d cycles ahead: horizon %d, want %d", ahead, h, at)
		}
		if next := sm.step(now); next != at {
			t.Fatalf("%d cycles ahead: step(%d) returned %d, want a jump to %d", ahead, now, next, at)
		}
		if w.pending&bit == 0 {
			t.Fatalf("%d cycles ahead: scoreboard bit cleared before cycle %d", ahead, at)
		}
		sm.step(at)
		if w.pending&bit != 0 {
			t.Fatalf("%d cycles ahead: scoreboard bit still set after stepping cycle %d", ahead, at)
		}
		if len(sm.retireFar) != 0 {
			t.Fatalf("%d cycles ahead: %d events left in the overflow heap", ahead, len(sm.retireFar))
		}
	}
}

// TestStepZeroAllocsSteadyState asserts the zero-allocation property of the
// hot loop: once the retire-event arena and the per-warp transaction buffers
// have grown to their working capacities, stepping allocates nothing. The
// check is a raw Mallocs delta over a long window rather than
// testing.AllocsPerRun, whose integer division would round a fractional
// allocs-per-cycle rate down to zero and hide a slow leak. Unrelated
// goroutines (the test framework, the runtime) can malloc concurrently, so
// a nonzero delta is retried a couple of times before failing.
func TestStepZeroAllocsSteadyState(t *testing.T) {
	cfg := config.GTX480()
	cfg.NumSMs = 1
	cfg.Scheduler = config.SchedGATES
	cfg.Gating = config.GateCoordBlackout
	cfg.AdaptiveIdleDetect = true
	cfg.MaxCycles = 1 << 30
	k := kernels.MustBenchmark("hotspot").Scale(100) // effectively endless
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	sm := gpu.SMs()[0]
	cyc := int64(0)
	for cyc < 163840 { // let every arena hit its high-water mark
		cyc = sm.step(cyc)
	}
	const window = 100000
	var delta uint64
	for attempt := 0; attempt < 3; attempt++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		end := cyc + window
		for cyc < end {
			cyc = sm.step(cyc)
		}
		runtime.ReadMemStats(&m1)
		delta = m1.Mallocs - m0.Mallocs
		if delta == 0 {
			return
		}
	}
	t.Fatalf("steady-state step allocated %d objects over %d cycles, want 0", delta, window)
}
