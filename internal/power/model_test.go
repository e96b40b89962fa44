package power

import (
	"math"
	"testing"
	"testing/quick"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
)

func TestDefaultModelConstants(t *testing.T) {
	m := Default(14)
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if m.StaticPerCycle[c] <= 0 || m.DynamicPerInstr[c] <= 0 {
			t.Fatalf("class %s has non-positive power constants", c)
		}
	}
	if m.StaticPerCycle[isa.FP] <= m.StaticPerCycle[isa.INT] {
		t.Fatal("FP leakage should exceed INT leakage (GPUWattch attribution)")
	}
	if m.GatedResidualFraction < 0 || m.GatedResidualFraction >= 1 {
		t.Fatalf("residual fraction %v out of range", m.GatedResidualFraction)
	}
}

func TestDefaultPanicsOnBadBET(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BET 0 accepted")
		}
	}()
	Default(0)
}

func TestEventOverheadIsBETTimesStatic(t *testing.T) {
	// The definitional identity of break-even time (Hu et al. [13]).
	m := Default(14)
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		want := 14 * m.StaticPerCycle[c]
		if got := m.EventOverhead(c); math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s overhead = %v, want %v", c, got, want)
		}
	}
}

// fakeReport builds a report with hand-set domain counters.
func fakeReport(powered, gated, events, instrs uint64) *sim.Report {
	r := &sim.Report{}
	d := &r.Domains[isa.INT]
	d.Class = isa.INT
	d.PoweredCycles = powered
	d.GatedCycles = gated
	d.BusyCycles = powered / 2
	d.IdleCycles = powered + gated - d.BusyCycles
	d.GatingEvents = events
	d.IssuedInstrs = instrs
	return r
}

func TestAnalyzeArithmetic(t *testing.T) {
	m := Default(10)
	m.GatedResidualFraction = 0
	r := fakeReport(700, 300, 5, 100)
	b := m.Analyze(r, isa.INT)
	ps := m.StaticPerCycle[isa.INT]
	if got, want := b.Static, 700*ps; got != want {
		t.Fatalf("static = %v, want %v", got, want)
	}
	if got, want := b.Overhead, 5*10*ps; got != want {
		t.Fatalf("overhead = %v, want %v", got, want)
	}
	if got, want := b.Dynamic, 100*m.DynamicPerInstr[isa.INT]; got != want {
		t.Fatalf("dynamic = %v, want %v", got, want)
	}
	if got, want := b.StaticBaseline, 1000*ps; got != want {
		t.Fatalf("baseline = %v, want %v", got, want)
	}
	// Savings = (1000 - 700 - 50)/1000 = 0.25.
	if got := b.StaticSavings(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("savings = %v, want 0.25", got)
	}
}

func TestSavingsNeverExceedOne(t *testing.T) {
	f := func(powered, gated, events uint16) bool {
		m := Default(14)
		r := fakeReport(uint64(powered), uint64(gated), uint64(events), 10)
		s := m.Analyze(r, isa.INT).StaticSavings()
		return s <= 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeAgainstPenalizesSlowdown(t *testing.T) {
	m := Default(14)
	fast := fakeReport(800, 200, 0, 100) // 1000 cycles
	slowRun := fakeReport(1000, 200, 0, 100)
	// Against a 1000-cycle baseline, the 1200-cycle run's extra powered
	// cycles reduce savings below its self-normalized figure.
	self := m.Analyze(slowRun, isa.INT).StaticSavings()
	vsBase := m.AnalyzeAgainst(slowRun, fast, isa.INT).StaticSavings()
	if vsBase >= self {
		t.Fatalf("baseline-normalized savings %v should be below self-normalized %v", vsBase, self)
	}
}

func TestDynamicEnergyInvariantAcrossTechniques(t *testing.T) {
	// Integration check of the paper's §7.3 claim on our simulator: dynamic
	// energy of every class is identical across gating techniques.
	cfg := config.Small()
	k := kernels.MustBenchmark("hotspot").Scale(0.2)
	m := Default(cfg.BreakEven)

	run := func(g config.GatingKind, s config.SchedulerKind) *sim.Report {
		c := cfg
		c.Gating = g
		c.Scheduler = s
		gpu, err := sim.NewGPU(c, k)
		if err != nil {
			t.Fatal(err)
		}
		return gpu.Run()
	}
	base := run(config.GateNone, config.SchedTwoLevel)
	for _, g := range []config.GatingKind{config.GateConventional, config.GateCoordBlackout} {
		rep := run(g, config.SchedGATES)
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			if got, want := m.Analyze(rep, c).Dynamic, m.Analyze(base, c).Dynamic; got != want {
				t.Fatalf("class %s dynamic energy %v != baseline %v under %v", c, got, want, g)
			}
		}
	}
}

// TestAnalyzeAll analyzes every class of an INT-only report: only INT
// carries dynamic energy.
func TestAnalyzeAll(t *testing.T) {
	m := Default(14)
	r := fakeReport(100, 0, 0, 10)
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if got := m.Analyze(r, c).Dynamic; (got != 0) != (c == isa.INT) {
			t.Errorf("%s dynamic energy %v in an INT-only report", c, got)
		}
	}
}

func TestAnalyzeNilAndEmptyReports(t *testing.T) {
	// The model must be total: nil reports, nil baselines and zero-cycle runs
	// all yield finite all-zero breakdowns, never NaN (a NaN here would
	// silently poison every suite mean it is folded into).
	m := Default(14)
	finite := func(b Breakdown) {
		t.Helper()
		for _, v := range []float64{
			b.Static, b.Dynamic, b.Overhead, b.StaticBaseline, b.Total(),
			b.StaticSavings(),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite value %v in breakdown %+v", v, b)
			}
		}
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		finite(m.Analyze(nil, c))
		finite(m.AnalyzeAgainst(nil, nil, c))
		finite(m.AnalyzeAgainst(&sim.Report{}, nil, c))
		finite(m.AnalyzeAgainst(nil, &sim.Report{}, c))
		empty := m.AnalyzeAgainst(&sim.Report{}, &sim.Report{}, c)
		finite(empty)
		if empty.Total() != 0 || empty.StaticSavings() != 0 {
			t.Fatalf("zero-cycle run has non-zero energy: %+v", empty)
		}
	}
}

func TestAnalyzeAgainstIntegerOnlyBenchmark(t *testing.T) {
	// lavaMD has no FP instructions at all; its FP domain is pure idle. The
	// FP breakdown must still be finite, with zero dynamic energy and a
	// meaningful static term (the idle pipes still leak).
	if !kernels.IntegerOnly("lavaMD") {
		t.Fatal("lavaMD is the suite's integer-only benchmark")
	}
	cfg := config.Small()
	k := kernels.MustBenchmark("lavaMD").Scale(0.1)
	gpu, err := sim.NewGPU(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	rep := gpu.Run()
	m := Default(cfg.BreakEven)
	b := m.AnalyzeAgainst(rep, rep, isa.FP)
	if b.Dynamic != 0 {
		t.Fatalf("integer-only benchmark has FP dynamic energy %v", b.Dynamic)
	}
	if b.StaticBaseline <= 0 || b.Static <= 0 {
		t.Fatalf("idle FP pipes should still leak: %+v", b)
	}
	if s := b.StaticSavings(); math.IsNaN(s) || s < -1 || s > 1 {
		t.Fatalf("FP savings %v out of range for an integer-only run", s)
	}
}

func TestAnalyzeAgainstIdenticalReports(t *testing.T) {
	// A run measured against itself: with no gating the static term equals
	// the baseline term exactly, so net savings are exactly zero; with gating
	// the savings reduce to the self-normalized Analyze result.
	cfg := config.Small()
	k := kernels.MustBenchmark("hotspot").Scale(0.1)
	gpu, err := sim.NewGPU(cfg, k) // config.Small() default is GateNone
	if err != nil {
		t.Fatal(err)
	}
	rep := gpu.Run()
	m := Default(cfg.BreakEven)
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		b := m.AnalyzeAgainst(rep, rep, c)
		if got := b.StaticSavings(); got != 0 {
			t.Fatalf("%s: ungated run saved %v against itself, want exactly 0", c, got)
		}
		self := m.Analyze(rep, c)
		if b != self {
			t.Fatalf("%s: AnalyzeAgainst(rep, rep) = %+v, Analyze(rep) = %+v", c, b, self)
		}
	}
}
