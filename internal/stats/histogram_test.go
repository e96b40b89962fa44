package stats

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Total() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Add(3)
	h.Add(3)
	h.Add(7)
	if h.Total() != 3 {
		t.Fatalf("Total = %d, want 3", h.Total())
	}
	if h.Count(3) != 2 || h.Count(7) != 1 || h.Count(4) != 0 {
		t.Fatal("counts wrong")
	}
	if h.Min() != 3 || h.Max() != 7 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got, want := h.Mean(), (3.0+3+7)/3; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	if h.Sum() != 13 {
		t.Fatalf("Sum = %d, want 13", h.Sum())
	}
}

func TestHistogramAddN(t *testing.T) {
	h := NewHistogram()
	h.AddN(5, 10)
	h.AddN(5, 0) // no-op
	if h.Total() != 10 || h.Count(5) != 10 {
		t.Fatalf("AddN failed: total=%d count=%d", h.Total(), h.Count(5))
	}
}

func TestHistogramNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	NewHistogram().Add(-1)
}

func TestHistogramFractions(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		h.Add(v)
	}
	if got := h.FractionBelow(5); got != 0.4 {
		t.Fatalf("FractionBelow(5) = %v, want 0.4", got)
	}
	if got := h.FractionBetween(5, 8); got != 0.3 {
		t.Fatalf("FractionBetween(5,8) = %v, want 0.3", got)
	}
	if got := h.FractionAtLeast(8); got != 0.3 {
		t.Fatalf("FractionAtLeast(8) = %v, want 0.3", got)
	}
}

func TestHistogramRegions3SumToOne(t *testing.T) {
	// Property: for any non-empty histogram and any idleDetect/bet, the
	// three regions of the paper's Figure 3 partition sum to 1.
	f := func(values []uint8, idRaw, betRaw uint8) bool {
		if len(values) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range values {
			h.Add(int(v))
		}
		id := int(idRaw % 30)
		bet := 1 + int(betRaw%30)
		r1, r2, r3 := h.Regions3(id, bet)
		sum := r1 + r2 + r3
		return sum > 0.999999 && sum < 1.000001 && r1 >= 0 && r2 >= 0 && r3 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram()
	b := NewHistogram()
	a.Add(1)
	a.Add(2)
	b.Add(2)
	b.Add(30)
	a.Merge(b)
	if a.Total() != 4 || a.Count(2) != 2 || a.Max() != 30 {
		t.Fatalf("merge failed: %s", a)
	}
	if b.Total() != 2 {
		t.Fatal("merge mutated the source")
	}
}

func TestHistogramValuesSorted(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{9, 1, 5, 1, 9, 3} {
		h.Add(v)
	}
	vs := h.Values()
	want := []int{1, 3, 5, 9}
	if len(vs) != len(want) {
		t.Fatalf("Values = %v, want %v", vs, want)
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("Values = %v, want %v", vs, want)
		}
	}
}

func TestHistogramEmptyFractions(t *testing.T) {
	h := NewHistogram()
	if h.FractionBelow(5) != 0 || h.FractionBetween(1, 2) != 0 || h.FractionAtLeast(0) != 0 {
		t.Fatal("empty histogram fractions should be 0")
	}
}

func TestHistogramAddNOverflowFreeTotals(t *testing.T) {
	// AddN must accumulate huge observation counts directly in uint64 —
	// no int truncation, no loop. A device-scale run can log ~2^40 idle
	// cycles, far beyond what per-observation Add could replay in a test.
	h := NewHistogram()
	const n = uint64(1) << 40
	h.AddN(3, n)
	h.AddN(5, n)
	if got := h.Total(); got != 2*n {
		t.Fatalf("Total = %d, want %d", got, 2*n)
	}
	if want := 3*n + 5*n; h.Sum() != want {
		t.Fatalf("Sum = %d, want %d", h.Sum(), want)
	}
	if h.Count(3) != n || h.Count(5) != n {
		t.Fatalf("Count(3)=%d Count(5)=%d, want %d each", h.Count(3), h.Count(5), n)
	}
	if h.Min() != 3 || h.Max() != 5 {
		t.Fatalf("Min/Max = %d/%d, want 3/5", h.Min(), h.Max())
	}
	if got, want := h.Mean(), 4.0; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestHistogramAddNZeroIsNoOp(t *testing.T) {
	h := NewHistogram()
	h.AddN(7, 0)
	if h.Total() != 0 || h.Count(7) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("AddN(v, 0) mutated the histogram: %s", h)
	}
	// In particular a zero-count AddN must not establish v as min/max.
	h.Add(3)
	h.AddN(1, 0)
	if h.Min() != 3 {
		t.Fatalf("Min = %d after AddN(1, 0), want 3", h.Min())
	}
}

func TestHistogramCountSumConsistency(t *testing.T) {
	// Total and Sum are caches of the per-value counts; they must always
	// agree with a fold over Values/Count.
	h := NewHistogram()
	h.Add(2)
	h.AddN(9, 4)
	h.Add(0)
	h.AddN(2, 7)
	var total, sum uint64
	for _, v := range h.Values() {
		total += h.Count(v)
		sum += uint64(v) * h.Count(v)
	}
	if total != h.Total() {
		t.Fatalf("fold total %d != Total %d", total, h.Total())
	}
	if sum != h.Sum() {
		t.Fatalf("fold sum %d != Sum %d", sum, h.Sum())
	}
}

func TestHistogramEmptyMinMaxMean(t *testing.T) {
	h := NewHistogram()
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram Min/Max/Mean = %d/%d/%v, want zeros", h.Min(), h.Max(), h.Mean())
	}
	// Zero is an observable value and distinct from emptiness: after Add(0)
	// the min is still 0 but Total proves it was observed.
	h.Add(0)
	if h.Min() != 0 || h.Total() != 1 {
		t.Fatalf("Add(0): Min=%d Total=%d, want 0/1", h.Min(), h.Total())
	}
}

func TestHistogramJSONRoundtrip(t *testing.T) {
	h := NewHistogram()
	h.AddN(7, 3)
	h.AddN(1, 5)
	h.AddN(100, 1)
	data, err := h.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	// Deterministic rendering: values ascending, so the bytes are stable for
	// content-addressed storage.
	if want := `{"values":[1,7,100],"counts":[5,3,1]}`; string(data) != want {
		t.Fatalf("MarshalJSON = %s, want %s", data, want)
	}
	got := NewHistogram()
	if err := got.UnmarshalJSON(data); err != nil {
		t.Fatalf("UnmarshalJSON: %v", err)
	}
	if !got.Equal(h) {
		t.Fatalf("round-trip drifted: %s vs %s", got, h)
	}
	if got.Total() != h.Total() || got.Sum() != h.Sum() || got.Min() != h.Min() || got.Max() != h.Max() {
		t.Fatal("aggregates drifted through JSON")
	}
}

func TestHistogramJSONEmpty(t *testing.T) {
	h := NewHistogram()
	data, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got := NewHistogram()
	if err := got.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(h) || got.Total() != 0 {
		t.Fatal("empty histogram round-trip drifted")
	}
}

// malformedHistogramJSON lists bodies UnmarshalJSON must reject; they also
// seed FuzzHistogramJSON.
var malformedHistogramJSON = []string{
	`{"values":[1,2],"counts":[1]}`,   // length mismatch
	`{"values":[-1],"counts":[1]}`,    // negative value
	`{"values":[1],"counts":[0]}`,     // zero count
	`{"values":[1,1],"counts":[1,1]}`, // repeated value
	`{"values":[2,1],"counts":[1,1]}`, // descending values
	`not json`,
	`{"values":[1099511627776],"counts":[1099511627776]}`, // sum wraps to 0
	`{"values":[1,2],"counts":[18446744073709551615,2]}`,  // total wraps to 1
}

func TestHistogramJSONRejectsMalformed(t *testing.T) {
	for _, bad := range malformedHistogramJSON {
		h := NewHistogram()
		if err := h.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("UnmarshalJSON(%s) accepted: total=%d sum=%d", bad, h.Total(), h.Sum())
		}
	}
}

func TestHistogramEqual(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	if !a.Equal(b) || !a.Equal(a) {
		t.Fatal("empty histograms must be equal")
	}
	a.Add(4)
	if a.Equal(b) {
		t.Fatal("unequal totals reported equal")
	}
	b.Add(4)
	if !a.Equal(b) {
		t.Fatal("identical histograms reported unequal")
	}
	b.Add(5)
	a.Add(6)
	if a.Equal(b) {
		t.Fatal("same totals, different values reported equal")
	}
}

func TestHistogramUnmarshalAllocatesOnce(t *testing.T) {
	src := NewHistogram()
	for v := 0; v < 300; v++ {
		src.AddN(v*v%4000, uint64(1+v%250))
	}
	data, err := src.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	h := NewHistogram()
	allocs := testing.AllocsPerRun(100, func() {
		if err := h.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("UnmarshalJSON of a canonical histogram: %v allocations, want at most 1", allocs)
	}
	if !h.Equal(src) || !h.Packed() {
		t.Fatalf("decoded %s (packed %v), want %s packed", h, h.Packed(), src)
	}
}

func TestHistogramPackedIsReadOnly(t *testing.T) {
	other := NewHistogram()
	other.Add(1)
	for name, write := range map[string]func(h *Histogram){
		"Add":     func(h *Histogram) { h.Add(3) },
		"AddN":    func(h *Histogram) { h.AddN(3, 0) },
		"Merge":   func(h *Histogram) { h.Merge(other) },
		"MergeIn": func(h *Histogram) { h.Merge(h) },
	} {
		h := NewHistogram()
		h.Add(2)
		h.Pack()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s into a packed histogram did not panic", name)
				}
			}()
			write(h)
		}()
	}
}

func TestHistogramEach(t *testing.T) {
	h := NewHistogram()
	h.AddN(9, 2)
	h.Add(0)
	h.AddN(300, 7)
	want := "0:1 9:2 300:7 "
	for _, packed := range []bool{false, true} {
		if packed {
			h.Pack()
		}
		var got strings.Builder
		h.Each(func(v int, n uint64) { fmt.Fprintf(&got, "%d:%d ", v, n) })
		if got.String() != want {
			t.Fatalf("Each (packed %v) = %q, want %q", packed, got.String(), want)
		}
	}
}

// TestAddCountsMatchesAddN checks AddCounts against one AddN per value over
// random count arrays merged into random histograms, including arrays whose
// values all exist already (the in-place path) and empty ones.
func TestAddCountsMatchesAddN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		got, want := NewHistogram(), NewHistogram()
		for i, n := 0, rng.Intn(20); i < n; i++ {
			v, k := rng.Intn(300), uint64(1+rng.Intn(5))
			got.AddN(v, k)
			want.AddN(v, k)
		}
		counts := make([]uint64, rng.Intn(300))
		for v := range counts {
			switch {
			case trial%3 == 0 && got.Count(v) == 0:
				// Only values the histogram holds: merged in place.
			case rng.Intn(4) == 0:
				counts[v] = uint64(rng.Intn(1000))
			}
		}
		for v, k := range counts {
			want.AddN(v, k)
		}
		got.AddCounts(counts)
		if !got.Equal(want) || got.Total() != want.Total() || got.Sum() != want.Sum() {
			t.Fatalf("trial %d: AddCounts gave %s, want %s", trial, got, want)
		}
	}
}
