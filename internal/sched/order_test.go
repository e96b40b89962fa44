package sched

import (
	"testing"
	"testing/quick"

	"warpedgates/internal/isa"
)

// candidate is one ready warp of the reference list arrangement.
type candidate struct {
	warp  int
	class isa.Class
}

// refReverse flips cands in place.
func refReverse(cands []candidate) {
	for i, j := 0, len(cands)-1; i < j; i, j = i+1, j-1 {
		cands[i], cands[j] = cands[j], cands[i]
	}
}

// refRotate is the list-based loose round-robin arrangement: the first warp
// above pivot comes first, relative order kept otherwise (a block swap by
// three reversals).
func refRotate(cands []candidate, pivot int) {
	split := len(cands)
	for i, c := range cands {
		if c.warp > pivot {
			split = i
			break
		}
	}
	refReverse(cands[:split])
	refReverse(cands[split:])
	refReverse(cands)
}

// refArrange is the reference issue order over an ascending candidate list:
// rotated after last and, for GATES, stably bucketed by class rank
// [hi, LDST, SFU, lo].
func refArrange(cands []candidate, last int, gates bool, hi isa.Class) []int {
	refRotate(cands, last)
	if gates {
		lo := isa.FP
		if hi == isa.FP {
			lo = isa.INT
		}
		var out []candidate
		for _, c := range []isa.Class{hi, isa.LDST, isa.SFU, lo} {
			for _, cd := range cands {
				if cd.class == c {
					out = append(out, cd)
				}
			}
		}
		cands = out
	}
	order := make([]int, len(cands))
	for i, c := range cands {
		order[i] = c.warp
	}
	return order
}

// TestOrderMatchesListArrangement checks the bitset walk against the
// reference rotate-and-bucket list order for every policy, over random ready
// sets, slot masks, per-warp classes, round-robin pointers and GATES
// priority orientations.
func TestOrderMatchesListArrangement(t *testing.T) {
	f := func(ready, thin, slot uint64, classes [64]uint8, lastRaw uint8, sparse, fpHigh bool) bool {
		if sparse {
			ready &= thin
		}
		last := int(lastRaw%65) - 1
		var readyCls [isa.NumClasses]uint64
		var cands []candidate
		for i := 0; i < 64; i++ {
			bit := uint64(1) << uint(i)
			if ready&bit == 0 {
				continue
			}
			c := isa.Class(classes[i] % uint8(isa.NumClasses))
			readyCls[c] |= bit
			if slot&bit != 0 {
				cands = append(cands, candidate{i, c})
			}
		}
		two, g := NewTwoLevel(), NewGATES()
		two.last, g.last = last, last
		g.highIsINT = !fpHigh
		for _, p := range []Policy{two, g} {
			want := refArrange(append([]candidate(nil), cands...), last, p == Policy(g), g.HighPriority())
			if got := walk(p, &readyCls, slot); !equalInts(got, want) {
				t.Logf("%T last=%d: walk %v, reference %v", p, last, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderSkipCountsPassedWarps checks the skipping walk against visiting
// every warp: at random points of a walk, random masks are skipped under
// either kind, and Next must return exactly the full walk's warps outside
// them while Passed counts, per kind, the skipped warps the full walk
// visits before the warp Next returned last (all of them once it returns
// -1), a warp in both masks counting under kind 0.
func TestOrderSkipCountsPassedWarps(t *testing.T) {
	f := func(ready, slot uint64, classes [64]uint8, lastRaw uint8, masks [6]uint64, at [6]uint8, kinds uint8, gates bool) bool {
		last := int(lastRaw%65) - 1
		var readyCls [isa.NumClasses]uint64
		for i := 0; i < 64; i++ {
			if bit := uint64(1) << uint(i); ready&bit != 0 {
				readyCls[classes[i]%uint8(isa.NumClasses)] |= bit
			}
		}
		var p Policy = &TwoLevel{roundRobin{last: last}}
		if gates {
			p = &GATES{roundRobin: roundRobin{last: last}, highIsINT: true}
		}
		full := walk(p, &readyCls, slot)
		var o Order
		p.Order(&o, &readyCls, slot)
		var skip [2]uint64
		var want [2]int
		step, k := 0, 0 // full-walk position, next mask to apply
		for {
			for ; k < len(masks) && int(at[k])%(len(full)+1) <= step; k++ {
				kind := int(kinds>>uint(k)) & 1
				o.Skip(kind, masks[k])
				skip[kind] |= masks[k]
			}
			got := o.Next()
			// The reference: visit the full walk until a warp not skipped.
			for ; step < len(full); step++ {
				w := uint64(1) << uint(full[step])
				if skip[0]&w != 0 {
					want[0]++
				} else if skip[1]&w != 0 {
					want[1]++
				} else {
					break
				}
			}
			ref := -1
			if step < len(full) {
				ref = full[step]
				step++
			}
			if got != ref || o.Passed(0) != want[0] || o.Passed(1) != want[1] {
				t.Logf("%T: Next %d, want %d; passed %d/%d, want %d/%d", p, got, ref, o.Passed(0), o.Passed(1), want[0], want[1])
				return false
			}
			if got < 0 {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
