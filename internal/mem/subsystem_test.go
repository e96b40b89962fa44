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

// TestGlobalAccessSequence pins the timing and statistics of a cycle's
// accesses issued port by port in SM order, as the simulator issues them:
// merges read the outstanding fill, L1 misses reach the shared device in line
// order, and DRAM requests queue per channel.
func TestGlobalAccessSequence(t *testing.T) {
	cfg := testCfg()
	cfg.DRAMSlots = 8 // lines 8, 16, 24 and 1<<41 share channel 0
	l2 := int64(cfg.L2HitLatency)
	dram := int64(cfg.DRAMLatency)
	type access struct {
		lines []Line
		want  Result
	}
	cases := []struct {
		name  string
		ports [][]access // per port (SM order), the accesses it issues at cycle 0
		mshr  [][2]uint64
		dev   [4]uint64 // L2 accesses, L2 misses, DRAM requests, queue delay
	}{
		{"one port", [][]access{{
			{[]Line{7}, Result{dram, 1, 1, 1}},           // cold DRAM miss
			{[]Line{7}, Result{dram, 1, 1, 0}},           // merge with its entry
			{[]Line{8, 9, 8}, Result{dram, 3, 3, 2}},     // fan-out with a duplicate
			{[]Line{1 << 41}, Result{4 + dram, 1, 1, 1}}, // queues behind line 8
		}}, [][2]uint64{{4, 2}}, [4]uint64{4, 4, 4, 4}},
		{"two ports in SM order", [][]access{
			{
				{[]Line{7}, Result{dram, 1, 1, 1}},
				{[]Line{8, 9, 8}, Result{dram, 3, 3, 2}},
				{[]Line{7}, Result{dram, 1, 1, 0}},
			},
			// The second SM hits lines the first one filled into the L2
			// this cycle, and queues behind its DRAM requests.
			{
				{[]Line{9}, Result{l2, 1, 1, 0}},
				{[]Line{7, 16}, Result{4 + dram, 2, 2, 1}},
				{[]Line{24}, Result{8 + dram, 1, 1, 1}},
				{[]Line{16}, Result{4 + dram, 1, 1, 0}},
			},
		}, [][2]uint64{{3, 2}, {4, 1}}, [4]uint64{7, 5, 5, 12}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := NewGPUMem(cfg)
			for i, accesses := range tc.ports {
				p := NewSMPort(cfg, dev)
				for k, a := range accesses {
					if got := p.GlobalAccess(0, a.lines); got != a.want {
						t.Fatalf("port %d access %d %v: got %+v, want %+v", i, k, a.lines, got, a.want)
					}
				}
				allocs, merges, _ := p.MSHRStats()
				if got := [2]uint64{allocs, merges}; got != tc.mshr[i] {
					t.Fatalf("port %d MSHR allocs/merges = %v, want %v", i, got, tc.mshr[i])
				}
				if int(allocs) != p.Occupancy() {
					t.Fatalf("port %d occupancy %d, want one entry per allocation (%d)", i, p.Occupancy(), allocs)
				}
			}
			var got [4]uint64
			got[0], got[1], got[2], got[3] = dev.Stats()
			if got != tc.dev {
				t.Fatalf("device stats = %v, want %v", got, tc.dev)
			}
		})
	}
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
