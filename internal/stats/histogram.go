package stats

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Histogram counts integer-valued observations (e.g. idle-period lengths in
// cycles). It is the backing store for the paper's Figure 3 idle-period
// distributions.
type Histogram struct {
	counts map[int]uint64
	total  uint64
	sum    uint64
	max    int
	min    int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]uint64), min: -1}
}

// Add records one observation of value v. Negative values are rejected because
// every quantity we histogram (cycle counts) is non-negative.
func (h *Histogram) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative histogram value %d", v))
	}
	h.counts[v]++
	h.total++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
	if h.min < 0 || v < h.min {
		h.min = v
	}
}

// AddN records n observations of value v.
func (h *Histogram) AddN(v int, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		panic(fmt.Sprintf("stats: negative histogram value %d", v))
	}
	h.counts[v] += n
	h.total += n
	h.sum += uint64(v) * n
	if v > h.max {
		h.max = v
	}
	if h.min < 0 || v < h.min {
		h.min = v
	}
}

// Count returns the number of observations equal to v.
func (h *Histogram) Count(v int) uint64 { return h.counts[v] }

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest observed value, or 0 if empty.
func (h *Histogram) Max() int {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest observed value, or 0 if empty.
func (h *Histogram) Min() int {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Mean returns the arithmetic mean of observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// FractionBelow returns the fraction of observations strictly less than v.
func (h *Histogram) FractionBelow(v int) float64 {
	if h.total == 0 {
		return 0
	}
	var n uint64
	for val, c := range h.counts {
		if val < v {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}

// FractionBetween returns the fraction of observations in [lo, hi).
func (h *Histogram) FractionBetween(lo, hi int) float64 {
	if h.total == 0 {
		return 0
	}
	var n uint64
	for val, c := range h.counts {
		if val >= lo && val < hi {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}

// FractionAtLeast returns the fraction of observations >= v.
func (h *Histogram) FractionAtLeast(v int) float64 {
	if h.total == 0 {
		return 0
	}
	var n uint64
	for val, c := range h.counts {
		if val >= v {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}

// Merge adds all observations from other into h.
func (h *Histogram) Merge(other *Histogram) {
	for v, c := range other.counts {
		h.AddN(v, c)
	}
}

// Values returns the distinct observed values in ascending order.
func (h *Histogram) Values() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
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
// in ascending value order. The derived aggregates (total, sum, min, max) are
// rebuilt on decode, so the encoding cannot drift from them, and the sorted
// order makes the bytes deterministic — a requirement of the durable report
// store, whose entries are checksummed.
type histogramJSON struct {
	Values []int    `json:"values"`
	Counts []uint64 `json:"counts"`
}

// MarshalJSON encodes the histogram deterministically (values ascending).
func (h *Histogram) MarshalJSON() ([]byte, error) {
	enc := histogramJSON{Values: h.Values()}
	enc.Counts = make([]uint64, len(enc.Values))
	for i, v := range enc.Values {
		enc.Counts[i] = h.counts[v]
	}
	return json.Marshal(enc)
}

// UnmarshalJSON decodes a histogram produced by MarshalJSON, replacing h's
// contents and recomputing every derived aggregate. Values must be strictly
// ascending, as MarshalJSON writes them: a repeated value would merge counts
// that can wrap to zero, which the encoder would then write as a payload
// this decoder rejects.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var dec histogramJSON
	if err := json.Unmarshal(data, &dec); err != nil {
		return err
	}
	if len(dec.Values) != len(dec.Counts) {
		return fmt.Errorf("stats: histogram decode: %d values but %d counts", len(dec.Values), len(dec.Counts))
	}
	*h = Histogram{counts: make(map[int]uint64, len(dec.Values)), min: -1}
	for i, v := range dec.Values {
		if v < 0 {
			return fmt.Errorf("stats: histogram decode: negative value %d", v)
		}
		if i > 0 && v <= dec.Values[i-1] {
			return fmt.Errorf("stats: histogram decode: value %d after %d, want strictly ascending", v, dec.Values[i-1])
		}
		if dec.Counts[i] == 0 {
			return fmt.Errorf("stats: histogram decode: zero count for value %d", v)
		}
		h.AddN(v, dec.Counts[i])
	}
	return nil
}

// Equal reports whether two histograms hold identical observations.
func (h *Histogram) Equal(other *Histogram) bool {
	if h.total != other.total || h.sum != other.sum || len(h.counts) != len(other.counts) {
		return false
	}
	for v, c := range h.counts {
		if other.counts[v] != c {
			return false
		}
	}
	return true
}

// String renders a compact textual summary of the histogram.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.2f min=%d max=%d", h.total, h.Mean(), h.Min(), h.Max())
	return b.String()
}
