package mem

import (
	"slices"
	"testing"

	"warpedgates/internal/config"
)

func testCfg() config.Config {
	c := config.Small()
	return c
}

func TestSharedAccessLatency(t *testing.T) {
	cfg := testCfg()
	p := NewSMPort(cfg, NewGPUMem(cfg))
	if got := p.SharedAccess(100); got != 100+int64(cfg.SharedLatency) {
		t.Fatalf("shared completion = %d", got)
	}
}

func TestGlobalAccessL1HitLatency(t *testing.T) {
	cfg := testCfg()
	p := NewSMPort(cfg, NewGPUMem(cfg))
	lines := []Line{42}
	p.GlobalAccess(0, lines) // cold miss fills L1
	p.Expire(1 << 30)        // drain the MSHR
	res := p.GlobalAccess(1<<30, lines)
	if res.L1Misses != 0 {
		t.Fatalf("expected L1 hit, got %d misses", res.L1Misses)
	}
	if got := res.CompleteAt - (1 << 30); got != int64(cfg.L1HitLatency) {
		t.Fatalf("hit latency = %d, want %d", got, cfg.L1HitLatency)
	}
}

func TestGlobalAccessMissLatencyOrdering(t *testing.T) {
	cfg := testCfg()
	gpu := NewGPUMem(cfg)
	p := NewSMPort(cfg, gpu)
	// Cold miss goes L1 -> L2 miss -> DRAM.
	res := p.GlobalAccess(0, []Line{7})
	if res.L1Misses != 1 || res.L2Misses != 1 {
		t.Fatalf("cold access misses = %d/%d", res.L1Misses, res.L2Misses)
	}
	if res.CompleteAt < int64(cfg.DRAMLatency) {
		t.Fatalf("DRAM access completed too fast: %d", res.CompleteAt)
	}
	// A different SM missing the same line finds it in L2.
	p2 := NewSMPort(cfg, gpu)
	res2 := p2.GlobalAccess(0, []Line{7})
	if res2.L2Misses != 0 {
		t.Fatal("second SM should hit in shared L2")
	}
	if res2.CompleteAt != int64(cfg.L2HitLatency) {
		t.Fatalf("L2 hit completion = %d, want %d", res2.CompleteAt, cfg.L2HitLatency)
	}
}

func TestMSHRMergeSharesCompletion(t *testing.T) {
	cfg := testCfg()
	p := NewSMPort(cfg, NewGPUMem(cfg))
	first := p.GlobalAccess(0, []Line{9})
	// Second access to the same in-flight line merges and completes with
	// (not after) the primary.
	second := p.GlobalAccess(5, []Line{9})
	if second.CompleteAt > first.CompleteAt {
		t.Fatalf("merged access completes at %d, after primary %d", second.CompleteAt, first.CompleteAt)
	}
	_, merges, _ := p.MSHRStats()
	if merges != 1 {
		t.Fatalf("merges = %d, want 1", merges)
	}
}

func TestCanIssueGlobalRespectsMSHRCapacity(t *testing.T) {
	cfg := testCfg()
	cfg.MSHRPerSM = 2
	p := NewSMPort(cfg, NewGPUMem(cfg))
	if !p.CanIssueGlobal([]Line{1, 2}) {
		t.Fatal("2 lines should fit 2 MSHRs")
	}
	p.GlobalAccess(0, []Line{1, 2})
	if p.CanIssueGlobal([]Line{3}) {
		t.Fatal("full MSHR accepted a new line")
	}
	// Merging into pending lines needs no new entry.
	if !p.CanIssueGlobal([]Line{1, 2}) {
		t.Fatal("merge-only access rejected")
	}
	// After expiry, capacity returns.
	p.Expire(1 << 30)
	if !p.CanIssueGlobal([]Line{3}) {
		t.Fatal("MSHR capacity not reclaimed after expiry")
	}
}

func TestDRAMChannelQueueing(t *testing.T) {
	cfg := testCfg()
	cfg.DRAMSlots = 1 // single channel: all requests serialize
	gpu := NewGPUMem(cfg)
	c1, _ := gpu.AccessLine(0, 1000)
	c2, _ := gpu.AccessLine(0, 2000)
	if c2 <= c1 {
		t.Fatalf("queued request should finish later: %d vs %d", c2, c1)
	}
	_, _, dram, queue := gpu.Stats()
	if dram != 2 || queue == 0 {
		t.Fatalf("dram=%d queue=%d", dram, queue)
	}
}

func TestGPUMemL2Caches(t *testing.T) {
	cfg := testCfg()
	gpu := NewGPUMem(cfg)
	gpu.AccessLine(0, 5)
	done, miss := gpu.AccessLine(100, 5)
	if miss {
		t.Fatal("second access should hit L2")
	}
	if done != 100+int64(cfg.L2HitLatency) {
		t.Fatalf("L2 hit completion = %d", done)
	}
}

func TestNewSMPortRequiresGPU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil GPU accepted")
		}
	}()
	NewSMPort(testCfg(), nil)
}

func TestOccupancyTracksExpiry(t *testing.T) {
	cfg := testCfg()
	p := NewSMPort(cfg, NewGPUMem(cfg))
	p.GlobalAccess(0, []Line{1, 2, 3})
	if p.Occupancy() != 3 {
		t.Fatalf("occupancy = %d, want 3", p.Occupancy())
	}
	p.Expire(1 << 30)
	if p.Occupancy() != 0 {
		t.Fatalf("occupancy = %d after expiry", p.Occupancy())
	}
}

func TestCanIssueGlobalDeduplicatesLines(t *testing.T) {
	cfg := testCfg()
	cfg.MSHRPerSM = 2
	p := NewSMPort(cfg, NewGPUMem(cfg))
	// Three transactions over two distinct lines need two entries, not three:
	// the first occurrence of line 1 allocates and the repeat merges. The
	// coalescer emits exactly this shape when a strided pattern wraps a
	// working set smaller than its fan-out.
	if !p.CanIssueGlobal([]Line{1, 2, 1}) {
		t.Fatal("duplicate line charged a fresh MSHR entry")
	}
	res := p.GlobalAccess(0, []Line{1, 2, 1})
	if res.Transactions != 3 || res.L1Misses != 3 {
		t.Fatalf("duplicate access stats = %+v", res)
	}
	if p.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2 (one entry per distinct line)", p.Occupancy())
	}
	_, merges, _ := p.MSHRStats()
	if merges != 1 {
		t.Fatalf("merges = %d, want 1 (the repeated line)", merges)
	}
	// All distinct and the table full: admission must still reject.
	if p.CanIssueGlobal([]Line{3}) {
		t.Fatal("full MSHR accepted a new line")
	}
}

// TestStageResolveMatchesInlineAccess pins the contract the parallel
// engine's arbitration is built on: staging a cycle's accesses on every port
// and then resolving the ports in SM order gives exactly the timing and
// statistics of issuing each access inline (GlobalAccess), port by port in
// SM order, as the serial engine does.
func TestStageResolveMatchesInlineAccess(t *testing.T) {
	cases := []struct {
		name  string
		ports [][][]Line // per port (SM order), the accesses it issues at cycle 0
	}{
		{"one port", [][][]Line{{
			{7},       // cold DRAM miss
			{7},       // same-cycle merge with the staged entry
			{8, 9, 8}, // fan-out with a duplicate
			{1 << 41}, // different region
		}}},
		{"two ports in SM order", [][][]Line{
			{{7}, {8, 9, 8}, {7}},
			// The second SM hits lines the first one filled into the L2
			// this cycle, and queues behind its DRAM requests.
			{{9}, {7, 16}, {24}, {16}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			cfg.DRAMSlots = 8 // lines 8, 16 and 24 share a channel
			inlineDev, stagedDev := NewGPUMem(cfg), NewGPUMem(cfg)
			var inline, staged []*SMPort
			for range tc.ports {
				inline = append(inline, NewSMPort(cfg, inlineDev))
				staged = append(staged, NewSMPort(cfg, stagedDev))
			}
			var want [][]Result
			for i, accesses := range tc.ports {
				var rs []Result
				for _, lines := range accesses {
					rs = append(rs, inline[i].GlobalAccess(0, lines))
				}
				want = append(want, rs)
			}
			for i, accesses := range tc.ports {
				for _, lines := range accesses {
					staged[i].StageGlobal(0, lines)
				}
			}
			for i, p := range staged {
				var got []Result
				p.ResolveStaged(func(k int, res Result) {
					if k != len(got) {
						t.Fatalf("port %d resolve order: got index %d, want %d", i, k, len(got))
					}
					got = append(got, res)
				})
				if !slices.Equal(want[i], got) {
					t.Fatalf("port %d: inline %+v, staged %+v", i, want[i], got)
				}
				ia, im, _ := inline[i].MSHRStats()
				sa, sm, _ := p.MSHRStats()
				if ia != sa || im != sm {
					t.Fatalf("port %d MSHR stats diverged: inline %d/%d staged %d/%d", i, ia, im, sa, sm)
				}
				if inline[i].Occupancy() != p.Occupancy() {
					t.Fatalf("port %d occupancy diverged: %d vs %d", i, inline[i].Occupancy(), p.Occupancy())
				}
			}
			var wantDev, gotDev [4]uint64
			wantDev[0], wantDev[1], wantDev[2], wantDev[3] = inlineDev.Stats()
			gotDev[0], gotDev[1], gotDev[2], gotDev[3] = stagedDev.Stats()
			if wantDev != gotDev {
				t.Fatalf("device stats diverged: inline %v staged %v", wantDev, gotDev)
			}
		})
	}
}

func TestGlobalAccessPanicsWithStagedBacklog(t *testing.T) {
	cfg := testCfg()
	p := NewSMPort(cfg, NewGPUMem(cfg))
	p.StageGlobal(0, []Line{4})
	defer func() {
		if recover() == nil {
			t.Fatal("GlobalAccess with a staged backlog did not panic")
		}
	}()
	p.GlobalAccess(0, []Line{5})
}

// TestCanIssueGlobalShortcutsMatchFullCount pins CanIssueGlobal's fast
// accept (no more lines than free entries) and early reject (the count
// passes the free entries) to the verdict of counting every distinct line
// without an outstanding fill, and checks that exactly the refusals move the
// NoteFull and stallsMSHR counters.
func TestCanIssueGlobalShortcutsMatchFullCount(t *testing.T) {
	fullCount := func(m *MSHR, lines []Line) bool {
		need := 0
		for i, l := range lines {
			if _, ok := m.Lookup(l); ok || slices.Contains(lines[:i], l) {
				continue
			}
			need++
		}
		return m.HasRoom(need)
	}
	cases := []struct {
		name    string
		pending []Line // outstanding lines before the check (capacity 4)
		lines   []Line
		want    bool
	}{
		{"fast accept", []Line{1, 2}, []Line{5, 6}, true},
		{"fast accept with duplicates", []Line{1, 2}, []Line{5, 5}, true},
		{"empty access on a full table", []Line{1, 2, 3, 4}, nil, true},
		{"merges only on a full table", []Line{1, 2, 3, 4}, []Line{1, 2}, true},
		{"counted accept through merges", []Line{1, 2}, []Line{1, 2, 5, 5}, true},
		{"counted accept through duplicates", []Line{1, 2, 3}, []Line{7, 7, 7}, true},
		{"early reject", []Line{1, 2, 3}, []Line{7, 8, 9}, false},
		{"reject after a merge", []Line{1, 2, 3, 4}, []Line{1, 9}, false},
		{"reject with duplicates", []Line{1, 2, 3}, []Line{7, 7, 8, 8}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			cfg.MSHRPerSM = 4
			p := NewSMPort(cfg, NewGPUMem(cfg))
			for _, l := range tc.pending {
				p.mshr.Allocate(l, 100)
			}
			if ref := fullCount(p.mshr, tc.lines); ref != tc.want {
				t.Fatalf("reference count says %v, case wants %v", ref, tc.want)
			}
			if got := p.CanIssueGlobal(tc.lines); got != tc.want {
				t.Fatalf("CanIssueGlobal = %v, want %v", got, tc.want)
			}
			refusals := uint64(0)
			if !tc.want {
				refusals = 1
			}
			_, _, full := p.MSHRStats()
			_, _, stalls := p.Stats()
			if full != refusals || stalls != refusals {
				t.Fatalf("NoteFull %d, stallsMSHR %d, want %d each", full, stalls, refusals)
			}
		})
	}
}
