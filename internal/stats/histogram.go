package stats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Histogram counts integer-valued observations (e.g. idle-period lengths in
// cycles). It is the backing store for the paper's Figure 3 idle-period
// distributions.
//
// A histogram has two forms. While a run adds observations it is open: the
// distinct values and their counts live in two parallel slices in ascending
// value order, so Add is a binary search and Merge a linear merge. Pack
// freezes it into the form a finished report retains: one byte slice of
// uvarint pairs (the value minus the previous value, then the count), exact
// for every int value and uint64 count. Idle-period lengths are mostly below
// 128 and their counts mostly below 200, so a pair takes two or three bytes
// where the open form takes 16. UnmarshalJSON decodes straight into the
// packed form. Every reader walks the entries of either form in ascending
// value order through one cursor; writing into a packed histogram panics.
// The zero value is an empty open histogram.
type Histogram struct {
	vals   []int    // open: distinct observed values, strictly ascending
	counts []uint64 // open: counts[i] observations of vals[i]
	packed []byte   // packed: the uvarint pairs; non-nil marks the form
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
	h.mustBeOpen()
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

// AddCounts records counts[v] observations of each value v, as AddN(v,
// counts[v]) for every v would, in one merge pass that allocates at most
// once.
func (h *Histogram) AddCounts(counts []uint64) {
	h.mustBeOpen()
	union, i := len(h.vals), 0
	for v, n := range counts {
		if n == 0 {
			continue
		}
		for i < len(h.vals) && h.vals[i] < v {
			i++
		}
		if i == len(h.vals) || h.vals[i] != v {
			union++
		}
		h.total += n
		h.sum += uint64(v) * n
	}
	vals, cs := h.vals[:0], h.counts[:0] // in place when no value is new
	if union > len(h.vals) {
		vals, cs = make([]int, 0, union), make([]uint64, 0, union)
	}
	// In place, entry i of h is read before slot i is written.
	i = 0
	for v, n := range counts {
		if n == 0 {
			continue
		}
		for ; i < len(h.vals) && h.vals[i] < v; i++ {
			vals, cs = append(vals, h.vals[i]), append(cs, h.counts[i])
		}
		if i < len(h.vals) && h.vals[i] == v {
			n += h.counts[i]
			i++
		}
		vals, cs = append(vals, v), append(cs, n)
	}
	for ; i < len(h.vals); i++ {
		vals, cs = append(vals, h.vals[i]), append(cs, h.counts[i])
	}
	h.vals, h.counts = vals, cs
}

// mustBeOpen panics when h is packed: a finished histogram is read-only.
func (h *Histogram) mustBeOpen() {
	if h.packed != nil {
		panic("stats: write to a packed histogram")
	}
}

// Pack freezes h into the packed form and drops the open slices; the packed
// bytes are sized exactly. Packing a packed histogram does nothing.
func (h *Histogram) Pack() {
	if h.packed != nil {
		return
	}
	size, prev := 0, 0
	for i, v := range h.vals {
		size += uvarintLen(uint64(v-prev)) + uvarintLen(h.counts[i])
		prev = v
	}
	b := make([]byte, 0, size)
	prev = 0
	for i, v := range h.vals {
		b = binary.AppendUvarint(b, uint64(v-prev))
		b = binary.AppendUvarint(b, h.counts[i])
		prev = v
	}
	h.packed, h.vals, h.counts = b, nil, nil
}

// Packed reports whether h is in the packed form.
func (h *Histogram) Packed() bool { return h.packed != nil }

// uvarintLen returns the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// cursor walks a histogram's entries in ascending value order, whichever
// form holds them. A histogram is in one form, so at most one of the open
// slices and the packed bytes is non-empty.
type cursor struct {
	vals   []int
	counts []uint64
	packed []byte
	v      int // the last packed value read, the base of the next delta
}

// entries returns a cursor at h's first entry.
func (h *Histogram) entries() cursor {
	return cursor{vals: h.vals, counts: h.counts, packed: h.packed}
}

// next returns the next entry's value and count, or ok false past the last.
func (c *cursor) next() (v int, n uint64, ok bool) {
	if len(c.vals) > 0 {
		v, n = c.vals[0], c.counts[0]
		c.vals, c.counts = c.vals[1:], c.counts[1:]
		return v, n, true
	}
	if len(c.packed) == 0 {
		return 0, 0, false
	}
	d, k := binary.Uvarint(c.packed)
	n, m := binary.Uvarint(c.packed[k:])
	c.packed = c.packed[k+m:]
	c.v += int(d)
	return c.v, n, true
}

// Each calls f with every distinct value and its count, values ascending.
func (h *Histogram) Each(f func(v int, n uint64)) {
	for c := h.entries(); ; {
		v, n, ok := c.next()
		if !ok {
			return
		}
		f(v, n)
	}
}

// Count returns the number of observations equal to v.
func (h *Histogram) Count(v int) uint64 {
	for c := h.entries(); ; {
		x, n, ok := c.next()
		if !ok || x > v {
			return 0
		}
		if x == v {
			return n
		}
	}
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest observed value, or 0 if empty.
func (h *Histogram) Max() int {
	m := 0
	if h.total == 0 {
		return m
	}
	for c := h.entries(); ; {
		v, _, ok := c.next()
		if !ok {
			return m
		}
		m = v
	}
}

// Min returns the smallest observed value, or 0 if empty.
func (h *Histogram) Min() int {
	if h.total == 0 {
		return 0
	}
	c := h.entries()
	v, _, _ := c.next()
	return v
}

// Mean returns the arithmetic mean of observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// countBelow returns the number of observations strictly less than v.
func (h *Histogram) countBelow(v int) (below uint64) {
	for c := h.entries(); ; {
		x, n, ok := c.next()
		if !ok || x >= v {
			return below
		}
		below += n
	}
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

// Merge adds all observations from other, in either form, into the open
// histogram h (other may be h itself). When other brings new values, h's
// slices are rebuilt sized exactly to the union, so a histogram merged from
// many holds no spare capacity.
func (h *Histogram) Merge(other *Histogram) {
	h.mustBeOpen()
	union, i := len(h.vals), 0
	for c := other.entries(); ; {
		v, _, ok := c.next()
		if !ok {
			break
		}
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
	// In place, entry k of other is read before entry k of h is written,
	// which is what merging h into itself needs.
	src := other.entries()
	v, n, ok := src.next()
	i = 0
	for k := range vals {
		switch {
		case !ok || (i < len(h.vals) && h.vals[i] < v):
			vals[k], counts[k] = h.vals[i], h.counts[i]
			i++
		case i == len(h.vals) || v < h.vals[i]:
			vals[k], counts[k] = v, n
			v, n, ok = src.next()
		default:
			vals[k], counts[k] = h.vals[i], h.counts[i]+n
			i++
			v, n, ok = src.next()
		}
	}
	h.vals, h.counts = vals, counts
	h.total += other.total
	h.sum += other.sum
}

// Values returns the distinct observed values in ascending order.
func (h *Histogram) Values() []int {
	// A packed pair takes at least two bytes.
	vs := make([]int, 0, len(h.vals)+len(h.packed)/2)
	for c := h.entries(); ; {
		v, _, ok := c.next()
		if !ok {
			return vs
		}
		vs = append(vs, v)
	}
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

// The wire form of a Histogram is {"values":[...],"counts":[...]}: the
// distinct values ascending and their counts, as parallel arrays. The
// derived aggregates (total, sum) are rebuilt on decode, so the encoding
// cannot drift from them, and the sorted order makes the bytes
// deterministic — a requirement of the durable report store, whose entries
// are checksummed.

// MarshalJSON encodes the histogram deterministically (values ascending),
// the bytes encoding/json would write for the two arrays, empty ones as [].
func (h *Histogram) MarshalJSON() ([]byte, error) {
	// A packed pair of two bytes is typically six to eight JSON bytes.
	b := make([]byte, 0, len(`{"values":[],"counts":[]}`)+8*len(h.vals)+4*len(h.packed))
	b = append(b, `{"values":[`...)
	b = h.appendColumn(b, false)
	b = append(b, `],"counts":[`...)
	b = h.appendColumn(b, true)
	return append(b, "]}"...), nil
}

// appendColumn appends h's values, or with counts set its counts,
// comma-separated in ascending value order.
func (h *Histogram) appendColumn(b []byte, counts bool) []byte {
	c := h.entries()
	for i := 0; ; i++ {
		v, n, ok := c.next()
		if !ok {
			return b
		}
		if i > 0 {
			b = append(b, ',')
		}
		if counts {
			b = strconv.AppendUint(b, n, 10)
		} else {
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
}

// UnmarshalJSON decodes a histogram produced by MarshalJSON straight into
// the packed form, replacing h's contents and recomputing every derived
// aggregate. It reads the object by hand: whitespace and either member order
// are accepted and a null or missing member is an empty array, but other or
// repeated members, escaped keys and numbers with a fraction or an exponent
// are errors. Values must be strictly ascending, as MarshalJSON writes them:
// a repeated value would merge counts that can wrap to zero, which the
// encoder would then write as a payload this decoder rejects. For the same
// reason a total or sum that does not fit in 64 bits is an error, not a
// wrapped aggregate. A first pass over the arrays checks them and sizes the
// packed bytes and a second writes them, so a well-formed histogram decodes
// with one allocation.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	vals, counts, err := histogramArrays(data)
	if err != nil {
		return err
	}
	var packed []byte
	var total, sum uint64
	for pass := 0; pass < 2; pass++ {
		vs, cs := jsonInts{rest: vals}, jsonInts{rest: counts}
		size, prev := 0, 0
		total, sum = 0, 0
		for i := 0; ; i++ {
			mag, neg, vok, err := vs.next()
			if err != nil {
				return err
			}
			c, cneg, cok, err := cs.next()
			if err != nil {
				return err
			}
			if vok != cok {
				return fmt.Errorf("stats: histogram decode: values and counts differ in length after %d entries", i)
			}
			if !vok {
				break
			}
			if neg && mag != 0 {
				return fmt.Errorf("stats: histogram decode: negative value -%d", mag)
			}
			if mag > math.MaxInt {
				return fmt.Errorf("stats: histogram decode: value %d overflows int", mag)
			}
			v := int(mag)
			if i > 0 && v <= prev {
				return fmt.Errorf("stats: histogram decode: value %d after %d, want strictly ascending", v, prev)
			}
			if cneg {
				return fmt.Errorf("stats: histogram decode: negative count for value %d", v)
			}
			if c == 0 {
				return fmt.Errorf("stats: histogram decode: zero count for value %d", v)
			}
			var carry uint64
			if total, carry = bits.Add64(total, c, 0); carry != 0 {
				return fmt.Errorf("stats: histogram decode: total observations overflow at value %d", v)
			}
			hi, lo := bits.Mul64(uint64(v), c)
			if sum, carry = bits.Add64(sum, lo, 0); hi != 0 || carry != 0 {
				return fmt.Errorf("stats: histogram decode: sum of values overflows at value %d", v)
			}
			if packed != nil {
				packed = binary.AppendUvarint(packed, uint64(v-prev))
				packed = binary.AppendUvarint(packed, c)
			}
			size += uvarintLen(uint64(v-prev)) + uvarintLen(c)
			prev = v
		}
		if packed == nil {
			packed = make([]byte, 0, size)
		}
	}
	*h = Histogram{packed: packed, total: total, sum: sum}
	return nil
}

// histogramArrays returns the bodies, between the brackets, of the values
// and counts arrays of a histogram's JSON object; a null or missing member
// is an empty body.
func histogramArrays(data []byte) (vals, counts []byte, err error) {
	s := skipSpace(data)
	malformed := func() error {
		return fmt.Errorf("stats: histogram decode: malformed JSON at offset %d", len(data)-len(s))
	}
	if len(s) == 0 || s[0] != '{' {
		return nil, nil, malformed()
	}
	s = skipSpace(s[1:])
	if len(s) > 0 && s[0] == '}' {
		s = s[1:]
	} else {
		var seen [2]bool
		for {
			var k int
			switch {
			case hasPrefix(s, `"values"`):
				k = 0
			case hasPrefix(s, `"counts"`):
				k = 1
			default:
				return nil, nil, malformed()
			}
			if seen[k] {
				return nil, nil, fmt.Errorf("stats: histogram decode: repeated member %s", s[:8])
			}
			seen[k] = true
			if s = skipSpace(s[8:]); len(s) == 0 || s[0] != ':' {
				return nil, nil, malformed()
			}
			var body []byte
			switch s = skipSpace(s[1:]); {
			case hasPrefix(s, "null"):
				s = s[4:]
			case len(s) > 0 && s[0] == '[':
				end := bytes.IndexByte(s, ']')
				if end < 0 {
					return nil, nil, malformed()
				}
				body, s = s[1:end], s[end+1:]
			default:
				return nil, nil, malformed()
			}
			if k == 0 {
				vals = body
			} else {
				counts = body
			}
			if s = skipSpace(s); len(s) > 0 && s[0] == ',' {
				s = skipSpace(s[1:])
				continue
			}
			if len(s) == 0 || s[0] != '}' {
				return nil, nil, malformed()
			}
			s = s[1:]
			break
		}
	}
	if s = skipSpace(s); len(s) != 0 {
		return nil, nil, malformed()
	}
	return vals, counts, nil
}

// jsonInts reads the integers of a JSON array body one at a time.
type jsonInts struct {
	rest []byte // unread bytes of the body
	n    int    // integers read
}

// next returns the magnitude and sign of the next integer, or ok false at
// the end of the body. Leading zeros, fractions and exponents are errors,
// as is a magnitude past 64 bits.
func (l *jsonInts) next() (mag uint64, neg, ok bool, err error) {
	s := skipSpace(l.rest)
	if l.n > 0 && len(s) > 0 {
		if s[0] != ',' {
			return 0, false, false, malformedElement(s)
		}
		s = skipSpace(s[1:])
		if len(s) == 0 {
			return 0, false, false, malformedElement(s)
		}
	}
	if len(s) == 0 {
		return 0, false, false, nil
	}
	if s[0] == '-' {
		neg, s = true, s[1:]
	}
	digits := 0
	for ; digits < len(s) && '0' <= s[digits] && s[digits] <= '9'; digits++ {
		d := uint64(s[digits] - '0')
		if mag > (math.MaxUint64-d)/10 {
			return 0, false, false, fmt.Errorf("stats: histogram decode: integer %s overflows 64 bits", s[:digits+1])
		}
		mag = mag*10 + d
	}
	if digits == 0 || (digits > 1 && s[0] == '0') {
		return 0, false, false, malformedElement(s)
	}
	l.rest = s[digits:]
	l.n++
	return mag, neg, true, nil
}

// malformedElement reports the bytes of an array body at s as malformed.
func malformedElement(s []byte) error {
	return fmt.Errorf("stats: histogram decode: malformed array element %.16q", s)
}

// skipSpace returns s without its leading JSON whitespace.
func skipSpace(s []byte) []byte {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t' || s[0] == '\n' || s[0] == '\r') {
		s = s[1:]
	}
	return s
}

// hasPrefix reports whether s begins with prefix.
func hasPrefix(s []byte, prefix string) bool {
	return len(s) >= len(prefix) && string(s[:len(prefix)]) == prefix
}

// Equal reports whether two histograms, in either form, hold identical
// observations.
func (h *Histogram) Equal(other *Histogram) bool {
	if h.total != other.total || h.sum != other.sum {
		return false
	}
	a, b := h.entries(), other.entries()
	for {
		v, n, ok := a.next()
		w, m, ok2 := b.next()
		if ok != ok2 || v != w || n != m {
			return false
		}
		if !ok {
			return true
		}
	}
}

// String renders a compact textual summary of the histogram.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.2f min=%d max=%d", h.total, h.Mean(), h.Min(), h.Max())
	return b.String()
}
