package kernels

import (
	"math"
	"testing"

	"warpedgates/internal/isa"
)

func TestAllBenchmarksBuildAndValidate(t *testing.T) {
	ks, err := AllBenchmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != len(BenchmarkNames) {
		t.Fatalf("built %d kernels, want %d", len(ks), len(BenchmarkNames))
	}
	for _, k := range ks {
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

func TestBenchmarkUnknownName(t *testing.T) {
	if _, err := Benchmark("nosuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := BenchmarkProfile("nosuch"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestBenchmarkDeterministic(t *testing.T) {
	a := MustBenchmark("hotspot")
	b := MustBenchmark("hotspot")
	if len(a.Body) != len(b.Body) {
		t.Fatal("non-deterministic body length")
	}
	for i := range a.Body {
		if a.Body[i] != b.Body[i] {
			t.Fatalf("instruction %d differs across builds: %s vs %s", i, &a.Body[i], &b.Body[i])
		}
	}
}

func TestMixApproximatesProfile(t *testing.T) {
	// The generated static mix should be near the profile's requested mix.
	// The generator inserts forced load consumers, so tolerances are loose.
	for _, name := range BenchmarkNames {
		p, err := BenchmarkProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		k := MustBenchmark(name)
		mix := k.Mix()
		if diff := mix[isa.LDST] - p.FracLDST; diff > 0.12 || diff < -0.12 {
			t.Errorf("%s LDST mix %v vs profile %v", name, mix[isa.LDST], p.FracLDST)
		}
		if p.FracFP == 0 && mix[isa.FP] > 0.12 {
			t.Errorf("%s should be (almost) FP-free, got %v", name, mix[isa.FP])
		}
	}
}

func TestIntegerOnly(t *testing.T) {
	if !IntegerOnly("lavaMD") {
		t.Error("lavaMD should be integer-only (paper §4, Fig. 5a)")
	}
	if IntegerOnly("hotspot") || IntegerOnly("sgemm") {
		t.Error("FP benchmarks misclassified as integer-only")
	}
	if IntegerOnly("nosuch") {
		t.Error("unknown benchmark cannot be integer-only")
	}
}

func TestPaperBenchmarkCount(t *testing.T) {
	// §7.1: "We selected eighteen benchmarks".
	if len(BenchmarkNames) != 18 {
		t.Fatalf("benchmark suite has %d entries, want 18", len(BenchmarkNames))
	}
	seen := map[string]bool{}
	for _, n := range BenchmarkNames {
		if seen[n] {
			t.Fatalf("duplicate benchmark %s", n)
		}
		seen[n] = true
		if _, ok := profiles[n]; !ok {
			t.Fatalf("benchmark %s listed but has no profile", n)
		}
	}
	if len(profiles) != len(BenchmarkNames) {
		t.Fatalf("%d profiles but %d names", len(profiles), len(BenchmarkNames))
	}
}

func TestScale(t *testing.T) {
	k := MustBenchmark("hotspot")
	half := k.Scale(0.5)
	if half.Iterations >= k.Iterations {
		t.Errorf("scale 0.5 did not shrink iterations: %d -> %d", k.Iterations, half.Iterations)
	}
	if half.MaxConcurrentCTAs != k.MaxConcurrentCTAs {
		t.Error("scaling must not change resident CTA count (occupancy)")
	}
	if half.CTAsPerSM < half.MaxConcurrentCTAs {
		t.Error("scaled kernel has fewer total CTAs than resident CTAs")
	}
	if len(half.Body) != len(k.Body) {
		t.Error("scaling must not alter the body")
	}
	// Scaling up grows work.
	double := k.Scale(2)
	if double.Iterations <= k.Iterations {
		t.Error("scale 2 did not grow iterations")
	}
	// Tiny scales clamp to at least one iteration and one CTA wave.
	tiny := k.Scale(0.0001)
	if tiny.Iterations < 1 || tiny.CTAsPerSM < tiny.MaxConcurrentCTAs {
		t.Error("tiny scale broke minimums")
	}
	if err := tiny.Validate(); err != nil {
		t.Errorf("tiny-scaled kernel invalid: %v", err)
	}
}

func TestScalePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(0) did not panic")
		}
	}()
	MustBenchmark("hotspot").Scale(0)
}

// TestScaleBoundedAbove pins MaxScale: between 1 and MaxScale, scaling never
// shrinks a kernel below its scale-1 iteration and CTA counts (the
// float-to-int conversion cannot wrap), and any factor past the bound panics.
func TestScaleBoundedAbove(t *testing.T) {
	factors := []float64{1, 1.5, 2, 10, 100, 1000, MaxScale / 3, math.Nextafter(MaxScale, 0), MaxScale}
	for _, name := range BenchmarkNames {
		k := MustBenchmark(name)
		one := k.Scale(1)
		for _, f := range factors {
			s := k.Scale(f)
			if s.Iterations < one.Iterations || s.CTAsPerSM < one.CTAsPerSM {
				t.Errorf("%s Scale(%g): iterations %d, CTAs %d, below scale 1's %d, %d",
					name, f, s.Iterations, s.CTAsPerSM, one.Iterations, one.CTAsPerSM)
			}
		}
	}
	for _, f := range []float64{math.Nextafter(MaxScale, math.Inf(1)), 1e18, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scale(%g) did not panic", f)
				}
			}()
			MustBenchmark("hotspot").Scale(f)
		}()
	}
}

func TestTotalWarpInstructions(t *testing.T) {
	k := MustBenchmark("nw")
	if got, want := k.TotalWarpInstructions(), len(k.Body)*k.Iterations; got != want {
		t.Fatalf("TotalWarpInstructions = %d, want %d", got, want)
	}
}

func TestKernelValidateRejections(t *testing.T) {
	base := MustBenchmark("hotspot")
	cases := []struct {
		name string
		mut  func(*Kernel)
	}{
		{"empty name", func(k *Kernel) { k.Name = "" }},
		{"empty body", func(k *Kernel) { k.Body = nil }},
		{"zero iterations", func(k *Kernel) { k.Iterations = 0 }},
		{"zero warps per CTA", func(k *Kernel) { k.WarpsPerCTA = 0 }},
		{"zero concurrent CTAs", func(k *Kernel) { k.MaxConcurrentCTAs = 0 }},
		{"fewer CTAs than concurrent", func(k *Kernel) { k.CTAsPerSM = k.MaxConcurrentCTAs - 1 }},
		{"zero working set", func(k *Kernel) { k.WorkingSetLines = 0 }},
		{"zero regions", func(k *Kernel) { k.NumRegions = 0 }},
	}
	for _, tc := range cases {
		cp := *base
		cp.Body = append([]isa.Instr(nil), base.Body...)
		tc.mut(&cp)
		if err := cp.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestKernelValidateCatchesBadInstruction(t *testing.T) {
	cp := *MustBenchmark("hotspot")
	cp.Body = append([]isa.Instr(nil), cp.Body...)
	cp.Body[3] = isa.Instr{Op: isa.NumOps}
	if err := cp.Validate(); err == nil {
		t.Fatal("kernel with invalid instruction accepted")
	}
}
