package stats

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Histogram counts integer-valued observations (e.g. idle-period lengths in
// cycles). It is the backing store for the paper's Figure 3 idle-period
// distributions.
//
// The distinct values and their counts live in two parallel slices in
// ascending value order — the layout the JSON form writes — so a report
// holds two flat arrays per domain instead of a map's buckets, readers walk
// the values in order without sorting, and Merge is a linear merge. The
// zero value is an empty histogram.
type Histogram struct {
	vals   []int    // distinct observed values, strictly ascending
	counts []uint64 // counts[i] observations of vals[i]
	total  uint64
	sum    uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one observation of value v. Negative values are rejected because
// every quantity we histogram (cycle counts) is non-negative.
func (h *Histogram) Add(v int) { h.AddN(v, 1) }

// AddN records n observations of value v.
func (h *Histogram) AddN(v int, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		panic(fmt.Sprintf("stats: negative histogram value %d", v))
	}
	i, found := slices.BinarySearch(h.vals, v)
	if found {
		h.counts[i] += n
	} else {
		h.vals = slices.Insert(h.vals, i, v)
		h.counts = slices.Insert(h.counts, i, n)
	}
	h.total += n
	h.sum += uint64(v) * n
}

// Count returns the number of observations equal to v.
func (h *Histogram) Count(v int) uint64 {
	if i, found := slices.BinarySearch(h.vals, v); found {
		return h.counts[i]
	}
	return 0
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest observed value, or 0 if empty.
func (h *Histogram) Max() int {
	if h.total == 0 {
		return 0
	}
	return h.vals[len(h.vals)-1]
}

// Min returns the smallest observed value, or 0 if empty.
func (h *Histogram) Min() int {
	if h.total == 0 {
		return 0
	}
	return h.vals[0]
}

// Mean returns the arithmetic mean of observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// countBelow returns the number of observations strictly less than v.
func (h *Histogram) countBelow(v int) uint64 {
	var n uint64
	for i := 0; i < len(h.vals) && h.vals[i] < v; i++ {
		n += h.counts[i]
	}
	return n
}

// fraction returns n as a fraction of all observations, or 0 if empty.
func (h *Histogram) fraction(n uint64) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(n) / float64(h.total)
}

// FractionBelow returns the fraction of observations strictly less than v.
func (h *Histogram) FractionBelow(v int) float64 { return h.fraction(h.countBelow(v)) }

// FractionBetween returns the fraction of observations in [lo, hi).
func (h *Histogram) FractionBetween(lo, hi int) float64 {
	if hi <= lo {
		return 0
	}
	return h.fraction(h.countBelow(hi) - h.countBelow(lo))
}

// FractionAtLeast returns the fraction of observations >= v.
func (h *Histogram) FractionAtLeast(v int) float64 { return h.fraction(h.total - h.countBelow(v)) }

// Merge adds all observations from other into h (other may be h itself).
// When other brings new values, h's slices are rebuilt sized exactly to
// the union: a report merges one histogram per pipe into each domain and
// then keeps the result, so spare capacity would be held for its lifetime.
func (h *Histogram) Merge(other *Histogram) {
	union, i := len(h.vals), 0
	for _, v := range other.vals {
		for i < len(h.vals) && h.vals[i] < v {
			i++
		}
		if i == len(h.vals) || h.vals[i] != v {
			union++
		}
	}
	vals, counts := h.vals, h.counts // in place when other adds no value
	if union > len(h.vals) {
		vals, counts = make([]int, union), make([]uint64, union)
	}
	i, j := 0, 0
	for k := range vals {
		switch {
		case j == len(other.vals) || (i < len(h.vals) && h.vals[i] < other.vals[j]):
			vals[k], counts[k] = h.vals[i], h.counts[i]
			i++
		case i == len(h.vals) || other.vals[j] < h.vals[i]:
			vals[k], counts[k] = other.vals[j], other.counts[j]
			j++
		default:
			vals[k], counts[k] = h.vals[i], h.counts[i]+other.counts[j]
			i, j = i+1, j+1
		}
	}
	h.vals, h.counts = vals, counts
	h.total += other.total
	h.sum += other.sum
}

// Values returns the distinct observed values in ascending order.
func (h *Histogram) Values() []int {
	return append(make([]int, 0, len(h.vals)), h.vals...)
}

// Regions3 partitions the distribution into the paper's three idle-period
// regions for a given idle-detect window and break-even time:
//
//	region 1: length <  idleDetect          (wasted — too short to gate)
//	region 2: idleDetect <= length < idleDetect+bet  (gated but uncompensated)
//	region 3: length >= idleDetect+bet      (net energy savings)
//
// The returned fractions sum to 1 for a non-empty histogram.
func (h *Histogram) Regions3(idleDetect, bet int) (r1, r2, r3 float64) {
	return h.FractionBelow(idleDetect),
		h.FractionBetween(idleDetect, idleDetect+bet),
		h.FractionAtLeast(idleDetect + bet)
}

// histogramJSON is the wire form of a Histogram: parallel value/count slices
// in ascending value order, the in-memory layout. The derived aggregates
// (total, sum) are rebuilt on decode, so the encoding cannot drift from
// them, and the sorted order makes the bytes deterministic — a requirement
// of the durable report store, whose entries are checksummed.
type histogramJSON struct {
	Values []int    `json:"values"`
	Counts []uint64 `json:"counts"`
}

// MarshalJSON encodes the histogram deterministically (values ascending).
// It writes the bytes encoding/json would write for histogramJSON, empty
// slices as [], without the reflection.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, len(`{"values":[],"counts":[]}`)+8*len(h.vals))
	b = append(b, `{"values":[`...)
	for i, v := range h.vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, `],"counts":[`...)
	for i, c := range h.counts {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, c, 10)
	}
	return append(b, "]}"...), nil
}

// UnmarshalJSON decodes a histogram produced by MarshalJSON, replacing h's
// contents and recomputing every derived aggregate. Values must be strictly
// ascending, as MarshalJSON writes them: a repeated value would merge counts
// that can wrap to zero, which the encoder would then write as a payload
// this decoder rejects. For the same reason a total or sum that does not fit
// in 64 bits is an error, not a wrapped aggregate.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var dec histogramJSON
	if err := json.Unmarshal(data, &dec); err != nil {
		return err
	}
	if len(dec.Values) != len(dec.Counts) {
		return fmt.Errorf("stats: histogram decode: %d values but %d counts", len(dec.Values), len(dec.Counts))
	}
	var total, sum, carry uint64
	for i, v := range dec.Values {
		if v < 0 {
			return fmt.Errorf("stats: histogram decode: negative value %d", v)
		}
		if i > 0 && v <= dec.Values[i-1] {
			return fmt.Errorf("stats: histogram decode: value %d after %d, want strictly ascending", v, dec.Values[i-1])
		}
		c := dec.Counts[i]
		if c == 0 {
			return fmt.Errorf("stats: histogram decode: zero count for value %d", v)
		}
		if total, carry = bits.Add64(total, c, 0); carry != 0 {
			return fmt.Errorf("stats: histogram decode: total observations overflow at value %d", v)
		}
		hi, lo := bits.Mul64(uint64(v), c)
		if sum, carry = bits.Add64(sum, lo, 0); hi != 0 || carry != 0 {
			return fmt.Errorf("stats: histogram decode: sum of values overflows at value %d", v)
		}
	}
	*h = Histogram{total: total, sum: sum}
	if n := len(dec.Values); n > 0 {
		h.vals = append(make([]int, 0, n), dec.Values...)
		h.counts = append(make([]uint64, 0, n), dec.Counts...)
	}
	return nil
}

// Equal reports whether two histograms hold identical observations.
func (h *Histogram) Equal(other *Histogram) bool {
	return h.total == other.total && h.sum == other.sum &&
		slices.Equal(h.vals, other.vals) && slices.Equal(h.counts, other.counts)
}

// String renders a compact textual summary of the histogram.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.2f min=%d max=%d", h.total, h.Mean(), h.Min(), h.Max())
	return b.String()
}
