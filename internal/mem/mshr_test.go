package mem

import (
	"testing"
	"testing/quick"
)

func TestMSHRAllocateLookupExpire(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(10, 100)
	if done, ok := m.Lookup(10); !ok || done != 100 {
		t.Fatalf("Lookup = %v,%v", done, ok)
	}
	if m.InFlight() != 1 {
		t.Fatalf("InFlight = %d", m.InFlight())
	}
	m.ExpireBefore(99)
	if m.InFlight() != 1 {
		t.Fatal("entry expired early")
	}
	m.ExpireBefore(100)
	if m.InFlight() != 0 {
		t.Fatal("entry not expired at its completion cycle")
	}
	if _, ok := m.Lookup(10); ok {
		t.Fatal("expired entry still pending")
	}
}

func TestMSHRHasRoom(t *testing.T) {
	m := NewMSHR(2)
	if !m.HasRoom(2) {
		t.Fatal("empty table should have room for 2")
	}
	if m.HasRoom(3) {
		t.Fatal("room for more than capacity")
	}
	m.Allocate(1, 10)
	if !m.HasRoom(1) || m.HasRoom(2) {
		t.Fatal("HasRoom wrong after one allocation")
	}
}

func TestMSHRDoubleAllocatePanics(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("double allocation did not panic")
		}
	}()
	m.Allocate(1, 20)
}

func TestMSHROverflowPanics(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	m.Allocate(2, 10)
}

func TestMSHRZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewMSHR(0)
}

func TestMSHRStats(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(1, 5)
	m.NoteMerge()
	m.NoteMerge()
	m.NoteFull(1)
	allocs, merges, fulls := m.Stats()
	if allocs != 1 || merges != 2 || fulls != 1 {
		t.Fatalf("stats = %d/%d/%d", allocs, merges, fulls)
	}
}

func TestMSHRNeverExceedsCapacityProperty(t *testing.T) {
	// Property: under random allocate/expire traffic guarded by HasRoom,
	// occupancy never exceeds capacity and Lookup agrees with allocations.
	f := func(ops []uint16) bool {
		m := NewMSHR(8)
		clock := int64(0)
		for _, op := range ops {
			clock++
			line := Line(op % 32)
			if _, pending := m.Lookup(line); pending {
				m.NoteMerge()
				continue
			}
			if !m.HasRoom(1) {
				m.ExpireBefore(clock + 50) // drain some
				continue
			}
			m.Allocate(line, clock+int64(op%100))
			if m.InFlight() > m.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMSHRMinFillFastPathMatchesSweep drives a randomized allocate / expire
// schedule against a shadow map, asserting the minFill fast path never
// skips an expiry the full sweep would have performed and never leaves the
// table differing from the oracle.
func TestMSHRMinFillFastPathMatchesSweep(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMSHR(8)
		shadow := map[Line]int64{}
		now := int64(0)
		for _, op := range ops {
			line := Line(op % 16)
			switch {
			case op%3 == 0: // advance the clock and expire
				now += int64(op % 64)
				m.ExpireBefore(now)
				for l, till := range shadow {
					if till <= now {
						delete(shadow, l)
					}
				}
			default: // allocate
				if _, pending := m.Lookup(line); pending || !m.HasRoom(1) {
					continue
				}
				fill := now + 1 + int64(op%128)
				m.Allocate(line, fill)
				shadow[line] = fill
			}
			if m.InFlight() != len(shadow) {
				t.Logf("in-flight %d, oracle %d", m.InFlight(), len(shadow))
				return false
			}
			for l, till := range shadow {
				got, ok := m.Lookup(l)
				if !ok || got != till {
					t.Logf("line %d: got %d,%v want %d", l, got, ok, till)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestMSHRMatchesShadowMap drives the dense table and a shadow map through
// the same random Allocate / Lookup / ExpireBefore / HasRoom sequence. Every
// call must agree with the map, including which calls panic (double
// allocation, overflow), and a panicking call must leave the table unchanged.
func TestMSHRMatchesShadowMap(t *testing.T) {
	const capacity = 6
	f := func(ops []uint32) bool {
		m := NewMSHR(capacity)
		shadow := map[Line]int64{}
		now := int64(0)
		for _, op := range ops {
			line := Line(op >> 8 % 10)
			fill := now + 1 + int64(op>>16%200)
			fillAt, pending := shadow[line]
			switch op % 5 {
			case 0, 1: // Allocate
				wantPanic := pending || len(shadow) >= capacity
				if panics(func() { m.Allocate(line, fill) }) != wantPanic {
					t.Logf("Allocate(%d) panic mismatch, want %v", line, wantPanic)
					return false
				}
				if !wantPanic {
					shadow[line] = fill
				}
			case 2: // Lookup
				if got, ok := m.Lookup(line); ok != pending || (ok && got != fillAt) {
					t.Logf("Lookup(%d) = %d,%v want %d,%v", line, got, ok, fillAt, pending)
					return false
				}
			case 3: // ExpireBefore
				now += int64(op >> 16 % 64)
				m.ExpireBefore(now)
				for l, till := range shadow {
					if till <= now {
						delete(shadow, l)
					}
				}
			default: // HasRoom
				n := int(op >> 16 % 8)
				if m.HasRoom(n) != (len(shadow)+n <= capacity) {
					t.Logf("HasRoom(%d) disagrees at occupancy %d", n, len(shadow))
					return false
				}
			}
			if m.InFlight() != len(shadow) {
				t.Logf("in-flight %d, shadow %d", m.InFlight(), len(shadow))
				return false
			}
		}
		for l, till := range shadow {
			if got, ok := m.Lookup(l); !ok || got != till {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMSHRGenTracksLineSet pins the generation counter admission refusals
// are cached under: it moves exactly when the set of outstanding lines
// changes (allocation, an expiry that frees an entry), never on a lookup or
// a quiescent expiry.
func TestMSHRGenTracksLineSet(t *testing.T) {
	m := NewMSHR(4)
	step := func(name string, op func(), wantChange bool) {
		before := m.gen
		op()
		if changed := m.gen != before; changed != wantChange {
			t.Fatalf("%s: generation changed = %v, want %v", name, changed, wantChange)
		}
	}
	step("first allocation", func() { m.Allocate(1, 50) }, true)
	step("lookup", func() { m.Lookup(1); m.HasRoom(1) }, false)
	step("quiescent expiry", func() { m.ExpireBefore(10) }, false)
	step("allocate", func() { m.Allocate(2, 20) }, true)
	step("expiry freeing an entry", func() { m.ExpireBefore(30) }, true)
	step("expiry freeing nothing", func() { m.ExpireBefore(40) }, false)
}
