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

func TestMSHRPatchCompletesStagedEntry(t *testing.T) {
	m := NewMSHR(2)
	m.AllocatePending(3)
	// An unpatched entry is pending but can never expire.
	if _, ok := m.Lookup(3); !ok {
		t.Fatal("staged entry not pending")
	}
	m.ExpireBefore(1 << 62)
	if m.InFlight() != 1 {
		t.Fatal("staged entry expired before being patched")
	}
	m.Patch(3, 100)
	if done, _ := m.Lookup(3); done != 100 {
		t.Fatalf("patched completion = %d, want 100", done)
	}
	m.ExpireBefore(100)
	if m.InFlight() != 0 {
		t.Fatal("patched entry did not expire")
	}
}

func TestMSHRPatchWithoutEntryPanics(t *testing.T) {
	m := NewMSHR(1)
	defer func() {
		if recover() == nil {
			t.Fatal("patch of a missing entry did not panic")
		}
	}()
	m.Patch(9, 5)
}

func TestMSHRDoublePatchPanics(t *testing.T) {
	m := NewMSHR(1)
	m.AllocatePending(9)
	m.Patch(9, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("double patch did not panic")
		}
	}()
	m.Patch(9, 6)
}

// TestMSHRMinFillFastPathMatchesSweep drives a randomized allocate / patch /
// expire schedule against a shadow map, asserting the minFill fast path never
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
			case op%3 == 1: // allocate with a known fill cycle
				if _, pending := m.Lookup(line); pending || !m.HasRoom(1) {
					continue
				}
				fill := now + 1 + int64(op%128)
				m.Allocate(line, fill)
				shadow[line] = fill
			default: // stage then patch, exercising the sentinel path
				if _, pending := m.Lookup(line); pending || !m.HasRoom(1) {
					continue
				}
				m.AllocatePending(line)
				fill := now + 1 + int64(op%128)
				m.Patch(line, fill)
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

// TestMSHRQuiescentExpireKeepsPendingEntry pins the fast path against the
// sentinel: a table holding only staged (unpatched) entries must treat every
// ExpireBefore as quiescent, no matter how far the clock advances.
func TestMSHRQuiescentExpireKeepsPendingEntry(t *testing.T) {
	m := NewMSHR(2)
	m.AllocatePending(3)
	m.ExpireBefore(1 << 60)
	if m.InFlight() != 1 {
		t.Fatal("unpatched entry expired")
	}
	m.Patch(3, 100)
	m.ExpireBefore(99)
	if m.InFlight() != 1 {
		t.Fatal("entry expired before its fill cycle")
	}
	m.ExpireBefore(100)
	if m.InFlight() != 0 {
		t.Fatal("entry survived its fill cycle")
	}
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestMSHRMatchesShadowMap drives the dense table and a shadow map through
// the same random Allocate / AllocatePending / Patch / Lookup / ExpireBefore /
// HasRoom sequence. Every call must agree with the map, including which calls
// panic (double allocation, overflow, patching a missing or already patched
// entry), and a panicking call must leave the table unchanged.
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
			switch op % 6 {
			case 0, 1: // Allocate, AllocatePending
				if op%6 == 1 {
					fill = pendingFill
				}
				wantPanic := pending || len(shadow) >= capacity
				if panics(func() { m.Allocate(line, fill) }) != wantPanic {
					t.Logf("Allocate(%d) panic mismatch, want %v", line, wantPanic)
					return false
				}
				if !wantPanic {
					shadow[line] = fill
				}
			case 2: // Patch
				wantPanic := !pending || fillAt != pendingFill
				if panics(func() { m.Patch(line, fill) }) != wantPanic {
					t.Logf("Patch(%d) panic mismatch, want %v", line, wantPanic)
					return false
				}
				if !wantPanic {
					shadow[line] = fill
				}
			case 3: // Lookup
				if got, ok := m.Lookup(line); ok != pending || (ok && got != fillAt) {
					t.Logf("Lookup(%d) = %d,%v want %d,%v", line, got, ok, fillAt, pending)
					return false
				}
			case 4: // ExpireBefore
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
// changes (allocation, an expiry that frees an entry), never on a patch, a
// lookup or a quiescent expiry.
func TestMSHRGenTracksLineSet(t *testing.T) {
	m := NewMSHR(4)
	step := func(name string, op func(), wantChange bool) {
		before := m.gen
		op()
		if changed := m.gen != before; changed != wantChange {
			t.Fatalf("%s: generation changed = %v, want %v", name, changed, wantChange)
		}
	}
	step("stage", func() { m.AllocatePending(1) }, true)
	step("patch", func() { m.Patch(1, 50) }, false)
	step("lookup", func() { m.Lookup(1); m.HasRoom(1) }, false)
	step("quiescent expiry", func() { m.ExpireBefore(10) }, false)
	step("allocate", func() { m.Allocate(2, 20) }, true)
	step("expiry freeing an entry", func() { m.ExpireBefore(30) }, true)
	step("expiry freeing nothing", func() { m.ExpireBefore(40) }, false)
}
