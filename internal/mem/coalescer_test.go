package mem

import (
	"testing"

	"warpedgates/internal/isa"
	"warpedgates/internal/stats"
)

func TestCoalescedIsOneTransaction(t *testing.T) {
	rng := stats.NewSplitMix64(1)
	lines := AppendTransactions(nil, isa.PatternCoalesced, 0, 5, 1024, rng)
	if len(lines) != 1 {
		t.Fatalf("coalesced access produced %d transactions", len(lines))
	}
}

func TestStridedFanOut(t *testing.T) {
	rng := stats.NewSplitMix64(1)
	if got := len(AppendTransactions(nil, isa.PatternStrided2, 0, 0, 1024, rng)); got != 2 {
		t.Fatalf("strided2 produced %d transactions, want 2", got)
	}
	if got := len(AppendTransactions(nil, isa.PatternStrided8, 0, 0, 1024, rng)); got != 8 {
		t.Fatalf("strided8 produced %d transactions, want 8", got)
	}
}

func TestRandomTransactionsDistinct(t *testing.T) {
	rng := stats.NewSplitMix64(99)
	lines := AppendTransactions(nil, isa.PatternRandom, 1, 0, 4096, rng)
	seen := map[Line]bool{}
	for _, l := range lines {
		if seen[l] {
			t.Fatalf("duplicate line %#x in random transactions", uint64(l))
		}
		seen[l] = true
	}
	if len(lines) == 0 || len(lines) > 8 {
		t.Fatalf("random fan-out %d out of range", len(lines))
	}
}

func TestRandomTinyWorkingSetTerminates(t *testing.T) {
	rng := stats.NewSplitMix64(7)
	lines := AppendTransactions(nil, isa.PatternRandom, 0, 0, 2, rng)
	if len(lines) == 0 || len(lines) > 2 {
		t.Fatalf("tiny working set produced %d transactions", len(lines))
	}
}

func TestRegionsNeverAlias(t *testing.T) {
	rng := stats.NewSplitMix64(3)
	a := AppendTransactions(nil, isa.PatternCoalesced, 0, 7, 64, rng)
	b := AppendTransactions(nil, isa.PatternCoalesced, 1, 7, 64, rng)
	if a[0] == b[0] {
		t.Fatal("same index in different regions aliased")
	}
}

func TestWorkingSetWrap(t *testing.T) {
	rng := stats.NewSplitMix64(3)
	// base beyond working set must wrap, staying within the region's lines.
	lines := AppendTransactions(nil, isa.PatternCoalesced, 2, 1<<20, 64, rng)
	idx := uint64(lines[0]) & ((1 << 40) - 1)
	if idx >= 64 {
		t.Fatalf("line index %d outside working set", idx)
	}
}

func TestStridedWrapEmitsDuplicates(t *testing.T) {
	// A strided pattern over a working set smaller than its fan-out wraps and
	// repeats lines — so MSHR admission control must not charge each repeat a
	// fresh entry (CanIssueGlobal dedupes). This pins the behaviour the
	// admission fix is sized against; if AppendTransactions ever dedupes
	// strided patterns itself, this test and the admission scan can both
	// simplify.
	lines := AppendTransactions(nil, isa.PatternStrided2, 0, 0, 1, nil)
	if len(lines) != 2 || lines[0] != lines[1] {
		t.Fatalf("Strided2 over a 1-line working set = %v, want a duplicated line", lines)
	}
	seen := map[Line]bool{}
	dup := false
	for _, l := range AppendTransactions(nil, isa.PatternStrided8, 3, 5, 4, nil) {
		if seen[l] {
			dup = true
		}
		seen[l] = true
	}
	if !dup {
		t.Fatal("Strided8 over a 4-line working set emitted no duplicate")
	}
}
