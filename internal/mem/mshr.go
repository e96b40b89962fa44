package mem

import (
	"fmt"
	"math"
)

// MSHR models the miss-status holding registers of one SM's L1: a bounded
// table of outstanding miss lines, each tagged with the cycle its fill
// returns. A full table is a structural hazard that blocks further memory
// issue — one of the mechanisms that parks warps in the pending set of the
// two-level scheduler. Because the simulator resolves access timing at issue,
// each entry carries its completion cycle, and entries expire when the
// simulated clock passes it.
//
// The table is dense: lines[i] completes at fills[i], both slices sized to
// the capacity up front, so a lookup is a short linear scan (the table holds
// a few dozen entries) and no operation allocates. Entry order carries no
// meaning; expiry compacts the survivors in place.
type MSHR struct {
	capacity int
	lines    []Line  // outstanding miss lines
	fills    []int64 // fill completion cycle of lines[i]
	// minFill is a lower bound on the earliest fill cycle in the table
	// (math.MaxInt64 when empty). It lets ExpireBefore skip the compaction
	// on the overwhelmingly common quiescent cycle where nothing can expire;
	// the compaction recomputes it exactly.
	minFill int64
	gen     uint64 // bumped whenever the set of outstanding lines changes
	merges  uint64
	allocs  uint64
	full    uint64 // times allocation failed because the table was full
}

// NewMSHR returns an MSHR table with the given number of entries.
func NewMSHR(capacity int) *MSHR {
	if capacity <= 0 {
		panic(fmt.Sprintf("mem: MSHR capacity must be positive, got %d", capacity))
	}
	return &MSHR{
		capacity: capacity,
		lines:    make([]Line, 0, capacity),
		fills:    make([]int64, 0, capacity),
		minFill:  math.MaxInt64,
	}
}

// find returns the table index of line, or -1 when it has no entry.
func (m *MSHR) find(line Line) int {
	for i, l := range m.lines {
		if l == line {
			return i
		}
	}
	return -1
}

// Lookup returns the completion cycle of an outstanding miss to line, if any.
// A secondary miss to a pending line merges with it and completes together —
// real MSHR merge semantics.
func (m *MSHR) Lookup(line Line) (completeAt int64, pending bool) {
	if i := m.find(line); i >= 0 {
		return m.fills[i], true
	}
	return 0, false
}

// HasRoom reports whether n new (non-merging) entries can be allocated.
func (m *MSHR) HasRoom(n int) bool { return len(m.lines)+n <= m.capacity }

// Allocate records an outstanding miss for line completing at completeAt.
// It panics if the table is full or the line is already pending; callers
// must Lookup and HasRoom first.
func (m *MSHR) Allocate(line Line, completeAt int64) {
	if m.find(line) >= 0 {
		panic(fmt.Sprintf("mem: MSHR double allocation for line %#x", uint64(line)))
	}
	if len(m.lines) >= m.capacity {
		panic("mem: MSHR overflow — caller must check HasRoom")
	}
	m.lines = append(m.lines, line)
	m.fills = append(m.fills, completeAt)
	m.gen++
	if completeAt < m.minFill {
		m.minFill = completeAt
	}
	m.allocs++
}

// NoteMerge counts a secondary miss merged into an existing entry.
func (m *MSHR) NoteMerge() { m.merges++ }

// NoteFull records n structural stalls caused by a full table.
func (m *MSHR) NoteFull(n uint64) { m.full += n }

// ExpireBefore releases every entry whose fill returned at or before now.
// Quiescent calls — no entry can have expired yet — are O(1) via the minFill
// bound; otherwise the survivors are compacted in place and the exact
// minimum over them becomes the new bound.
func (m *MSHR) ExpireBefore(now int64) {
	if now < m.minFill {
		return
	}
	min, k := int64(math.MaxInt64), 0
	for i, till := range m.fills {
		if till <= now {
			continue
		}
		m.lines[k], m.fills[k] = m.lines[i], till
		k++
		if till < min {
			min = till
		}
	}
	if k < len(m.lines) {
		m.gen++
	}
	m.lines, m.fills = m.lines[:k], m.fills[:k]
	m.minFill = min
}

// InFlight returns the number of outstanding lines.
func (m *MSHR) InFlight() int { return len(m.lines) }

// Capacity returns the table size.
func (m *MSHR) Capacity() int { return m.capacity }

// Stats returns allocation, merge and full-stall counters.
func (m *MSHR) Stats() (allocs, merges, fullStalls uint64) {
	return m.allocs, m.merges, m.full
}
