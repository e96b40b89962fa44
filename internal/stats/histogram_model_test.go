package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"testing"
)

// refHistogram is the reference model for Histogram: a plain map from value
// to count, with every aggregate folded from it on demand in wrapping uint64
// arithmetic, as Histogram keeps its running totals.
type refHistogram map[int]uint64

func (r refHistogram) addN(v int, n uint64) {
	if n > 0 {
		r[v] += n
	}
}

func (r refHistogram) values() []int {
	vs := make([]int, 0, len(r))
	for v := range r {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

func (r refHistogram) total() (t uint64) {
	for _, c := range r {
		t += c
	}
	return t
}

func (r refHistogram) sum() (s uint64) {
	for v, c := range r {
		s += uint64(v) * c
	}
	return s
}

// fits reports whether the total and the sum hold in 64 bits without
// wrapping, which is when the JSON form decodes back.
func (r refHistogram) fits() bool {
	var t, s, carry uint64
	for v, c := range r {
		if t, carry = bits.Add64(t, c, 0); carry != 0 {
			return false
		}
		hi, lo := bits.Mul64(uint64(v), c)
		if s, carry = bits.Add64(s, lo, 0); hi != 0 || carry != 0 {
			return false
		}
	}
	return true
}

func (r refHistogram) fraction(keep func(v int) bool) float64 {
	t := r.total()
	if t == 0 {
		return 0
	}
	var n uint64
	for v, c := range r {
		if keep(v) {
			n += c
		}
	}
	return float64(n) / float64(t)
}

// randValue draws a histogram value: mostly short idle runs with repeats,
// sometimes long ones, sometimes at or past 2^20.
func randValue(rng *SplitMix64) int {
	switch rng.Intn(4) {
	case 0, 1:
		return rng.Intn(40)
	case 2:
		return rng.Intn(5000)
	default:
		return 1<<20 + rng.Intn(1<<32)
	}
}

// checkAgainstModel compares every accessor of h with the reference.
func checkAgainstModel(t *testing.T, step string, h *Histogram, ref refHistogram, rng *SplitMix64) {
	t.Helper()
	vals := ref.values()
	total, sum := ref.total(), ref.sum()
	if h.Total() != total || h.Sum() != sum {
		t.Fatalf("%s: Total/Sum = %d/%d, want %d/%d", step, h.Total(), h.Sum(), total, sum)
	}
	if got := h.Values(); !slices.Equal(got, vals) || got == nil {
		t.Fatalf("%s: Values = %v, want %v", step, got, vals)
	}
	var wantMin, wantMax int
	var wantMean float64
	if total > 0 {
		wantMin, wantMax = vals[0], vals[len(vals)-1]
		wantMean = float64(sum) / float64(total)
	}
	if h.Min() != wantMin || h.Max() != wantMax || h.Mean() != wantMean {
		t.Fatalf("%s: Min/Max/Mean = %d/%d/%v, want %d/%d/%v", step, h.Min(), h.Max(), h.Mean(), wantMin, wantMax, wantMean)
	}
	probes := []int{-1, 0, 1, 1 << 20, 1<<20 + 1<<32}
	for _, v := range vals {
		probes = append(probes, v-1, v, v+1)
	}
	for _, p := range probes {
		if h.Count(p) != ref[p] {
			t.Fatalf("%s: Count(%d) = %d, want %d", step, p, h.Count(p), ref[p])
		}
		if got, want := h.FractionBelow(p), ref.fraction(func(v int) bool { return v < p }); got != want {
			t.Fatalf("%s: FractionBelow(%d) = %v, want %v", step, p, got, want)
		}
		if got, want := h.FractionAtLeast(p), ref.fraction(func(v int) bool { return v >= p }); got != want {
			t.Fatalf("%s: FractionAtLeast(%d) = %v, want %v", step, p, got, want)
		}
		hi := p + rng.Intn(100) - 20 // sometimes an empty or inverted interval
		if got, want := h.FractionBetween(p, hi), ref.fraction(func(v int) bool { return v >= p && v < hi }); got != want {
			t.Fatalf("%s: FractionBetween(%d, %d) = %v, want %v", step, p, hi, got, want)
		}
	}
	id, bet := rng.Intn(30), 1+rng.Intn(30)
	r1, r2, r3 := h.Regions3(id, bet)
	w1 := ref.fraction(func(v int) bool { return v < id })
	w2 := ref.fraction(func(v int) bool { return v >= id && v < id+bet })
	w3 := ref.fraction(func(v int) bool { return v >= id+bet })
	if r1 != w1 || r2 != w2 || r3 != w3 {
		t.Fatalf("%s: Regions3(%d, %d) = %v/%v/%v, want %v/%v/%v", step, id, bet, r1, r2, r3, w1, w2, w3)
	}

	// The same observations added value by value in descending order must
	// compare Equal; one more observation must not.
	rebuilt := NewHistogram()
	for i := len(vals) - 1; i >= 0; i-- {
		rebuilt.AddN(vals[i], ref[vals[i]])
	}
	if !h.Equal(rebuilt) || !rebuilt.Equal(h) {
		t.Fatalf("%s: histogram rebuilt from the model is not Equal", step)
	}
	rebuilt.Add(randValue(rng))
	if h.Equal(rebuilt) || rebuilt.Equal(h) {
		t.Fatalf("%s: histogram with one more observation is Equal", step)
	}

	wire := refHistogramJSON{Values: vals, Counts: make([]uint64, len(vals))}
	for i, v := range vals {
		wire.Counts[i] = ref[v]
	}
	want, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.MarshalJSON()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: MarshalJSON = %s, %v; want %s", step, got, err, want)
	}
	back := NewHistogram()
	err = back.UnmarshalJSON(got)
	if ref.fits() != (err == nil) {
		t.Fatalf("%s: decode error %v, but totals fit in 64 bits = %v", step, err, ref.fits())
	}
	if err == nil && !back.Equal(h) {
		t.Fatalf("%s: JSON round trip drifted", step)
	}
}

// TestHistogramMatchesMapModel drives random Add/AddN/Merge/Pack sequences
// over a few histograms, including merges into an empty histogram, of a
// histogram into itself and from a packed histogram, and checks every
// accessor of both forms against a map model after each step.
func TestHistogramMatchesMapModel(t *testing.T) {
	const pool, steps = 3, 60
	for seed := uint64(1); seed <= 100; seed++ {
		rng := NewSplitMix64(seed)
		hs := make([]*Histogram, pool)
		refs := make([]refHistogram, pool)
		for i := range hs {
			hs[i], refs[i] = NewHistogram(), refHistogram{}
		}
		for step := 0; step < steps; step++ {
			i := rng.Intn(pool)
			var op string
			switch rng.Intn(9) {
			case 0, 1, 2:
				op = "Add"
				v := randValue(rng)
				hs[i].Add(v)
				refs[i].addN(v, 1)
			case 3, 4:
				op = "AddN"
				v, n := randValue(rng), uint64(rng.Intn(1<<20))
				hs[i].AddN(v, n)
				refs[i].addN(v, n)
			case 5:
				op = "Merge into empty"
				j := rng.Intn(pool)
				empty, ref := NewHistogram(), refHistogram{}
				empty.Merge(hs[j])
				for v, c := range refs[j] {
					ref.addN(v, c)
				}
				hs[i], refs[i] = empty, ref
			case 6:
				op = "Merge"
				j := rng.Intn(pool)
				src := refs[j].values() // snapshot: j may be i
				counts := make([]uint64, len(src))
				for k, v := range src {
					counts[k] = refs[j][v]
				}
				hs[i].Merge(hs[j])
				for k, v := range src {
					refs[i].addN(v, counts[k])
				}
			case 7:
				op = "Merge self"
				hs[i].Merge(hs[i])
				for v, c := range refs[i] {
					refs[i][v] = 2 * c
				}
			default:
				// Add an entry at the int and uint64 extremes, check a
				// packed copy, then merge the packed copy into another
				// histogram of the pool.
				op = "Pack"
				v, n := math.MaxInt-rng.Intn(3), math.MaxUint64-uint64(rng.Intn(3))
				hs[i].AddN(v, n)
				refs[i].addN(v, n)
				packed := NewHistogram()
				packed.Merge(hs[i])
				packed.Pack()
				if !packed.Packed() || hs[i].Packed() {
					t.Fatalf("Pack: Packed() = %v for the copy and %v for the source", packed.Packed(), hs[i].Packed())
				}
				checkAgainstModel(t, op, packed, refs[i], rng)
				packed.Pack() // a second Pack does nothing
				checkAgainstModel(t, "Pack again", packed, refs[i], rng)
				j := rng.Intn(pool)
				hs[j].Merge(packed)
				for v, c := range refs[i] {
					refs[j].addN(v, c)
				}
				checkAgainstModel(t, "Merge packed", hs[j], refs[j], rng)
			}
			checkAgainstModel(t, op, hs[i], refs[i], rng)
		}
	}
}

// refHistogramJSON and refUnmarshal are the reflective decoder that
// UnmarshalJSON replaced, kept as the reference FuzzHistogramJSON checks it
// against.
type refHistogramJSON struct {
	Values []int    `json:"values"`
	Counts []uint64 `json:"counts"`
}

func refUnmarshal(data []byte) (*Histogram, error) {
	var dec refHistogramJSON
	if err := json.Unmarshal(data, &dec); err != nil {
		return nil, err
	}
	if len(dec.Values) != len(dec.Counts) {
		return nil, fmt.Errorf("%d values but %d counts", len(dec.Values), len(dec.Counts))
	}
	var total, sum, carry uint64
	for i, v := range dec.Values {
		if v < 0 {
			return nil, fmt.Errorf("negative value %d", v)
		}
		if i > 0 && v <= dec.Values[i-1] {
			return nil, fmt.Errorf("value %d after %d", v, dec.Values[i-1])
		}
		c := dec.Counts[i]
		if c == 0 {
			return nil, fmt.Errorf("zero count for value %d", v)
		}
		if total, carry = bits.Add64(total, c, 0); carry != 0 {
			return nil, fmt.Errorf("total overflows at value %d", v)
		}
		hi, lo := bits.Mul64(uint64(v), c)
		if sum, carry = bits.Add64(sum, lo, 0); hi != 0 || carry != 0 {
			return nil, fmt.Errorf("sum overflows at value %d", v)
		}
	}
	h := NewHistogram()
	for i, v := range dec.Values {
		h.AddN(v, dec.Counts[i])
	}
	return h, nil
}

// FuzzHistogramJSON checks UnmarshalJSON against the reflective reference:
// it never accepts bytes the reference rejects, it decodes what both accept
// to the same histogram, and it accepts the canonical encoding of whatever
// the reference accepts. What it accepts re-encodes stably.
func FuzzHistogramJSON(f *testing.F) {
	for _, body := range malformedHistogramJSON {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"values":[1,7,100],"counts":[5,3,1]}`))
	f.Add([]byte(`{"values":[],"counts":[]}`))
	f.Add([]byte(`{"values":null,"counts":null}`))
	f.Add([]byte(` { "counts" : [ 2 , 1 ] , "values" : [ 0 , 9223372036854775807 ] } `))
	f.Add([]byte(`{"values":[-0,1],"counts":[1,18446744073709551614]}`))
	f.Add([]byte(`{"Values":[1],"counts":[1]}`))
	f.Add([]byte(`{"values":[1],"counts":[1],"extra":{}}`))
	f.Add([]byte(`{"values":[1.0],"counts":[1e0]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := refUnmarshal(data)
		h := NewHistogram()
		err := h.UnmarshalJSON(data)
		if err == nil && refErr != nil {
			t.Fatalf("accepted %q, which the reference rejects: %v", data, refErr)
		}
		if err == nil && !h.Equal(ref) {
			t.Fatalf("%q decodes to %s, the reference to %s", data, h, ref)
		}
		if refErr == nil {
			canon, _ := ref.MarshalJSON()
			again := NewHistogram()
			if err := again.UnmarshalJSON(canon); err != nil || !again.Equal(ref) {
				t.Fatalf("canonical %s of accepted %q does not decode back: %v", canon, data, err)
			}
		}
		if err != nil {
			return
		}
		first, err := h.MarshalJSON()
		if err != nil {
			t.Fatalf("decoded histogram does not encode: %v", err)
		}
		again := NewHistogram()
		if err := again.UnmarshalJSON(first); err != nil {
			t.Fatalf("re-encoded histogram %s does not decode: %v", first, err)
		}
		if !again.Equal(h) {
			t.Fatalf("round trip drifted: %s vs %s", again, h)
		}
		second, err := again.MarshalJSON()
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable: %s then %s (%v)", first, second, err)
		}
	})
}
