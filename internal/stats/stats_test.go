package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect positive correlation: r = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect negative correlation: r = %v", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("zero-variance x should give 0, got %v", r)
	}
	if r := Pearson([]float64{5}, []float64{6}); r != 0 {
		t.Fatalf("single point should give 0, got %v", r)
	}
	if r := Pearson(nil, nil); r != 0 {
		t.Fatalf("empty should give 0, got %v", r)
	}
}

func TestPearsonMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths did not panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func TestPearsonBounded(t *testing.T) {
	// Property: |r| <= 1 for any paired samples.
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		xs, ys := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		r := Pearson(xs, ys)
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("Geomean(2,8) = %v, want 4", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("Geomean(nil) = %v, want 0", g)
	}
	if g := Geomean([]float64{1, 1, 1}); math.Abs(g-1) > 1e-12 {
		t.Fatalf("Geomean(1,1,1) = %v", g)
	}
	// Non-positive entries are clamped, not fatal.
	if g := Geomean([]float64{0, 4}); g <= 0 {
		t.Fatalf("Geomean with zero entry = %v, want positive", g)
	}
}

func TestMeanAndMedian(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("Median odd = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("Median even = %v", m)
	}
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Median mutated its input")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MinMax(empty) did not panic")
		}
	}()
	MinMax(nil)
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Fatal("Ratio(6,3) != 2")
	}
	if Ratio(6, 0) != 0 {
		t.Fatal("Ratio by zero should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRowf("beta", 2.5)
	out := tab.String()
	for _, want := range []string{"== demo ==", "name", "alpha", "beta", "2.5000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if tab.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
}

func TestTableColumnAlignment(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("xxxxxxx", "y")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected header+separator+row, got %d lines:\n%s", len(lines), out)
	}
	// The 'b' header must start at the same column as 'y'.
	if strings.Index(lines[0], "b") != strings.Index(lines[2], "y") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := NewTable("title ignored", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("with,comma", "2")
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := "name,value\nalpha,1\n\"with,comma\",2\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := NewTable("t", "a")
	tab.AddRow("1", "2", "3") // longer than header
	tab.AddRow()              // empty row
	out := tab.String()
	if !strings.Contains(out, "3") {
		t.Fatalf("extra cells dropped:\n%s", out)
	}
}
