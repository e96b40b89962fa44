package mem

import (
	"warpedgates/internal/isa"
	"warpedgates/internal/stats"
)

// AppendTransactions converts one warp memory instruction into the set of
// cache-line transactions the hardware would issue, following Fermi's
// per-128B-segment coalescing rules, appends them to dst and returns the
// extended slice. Fully coalesced warps touch one line; strided and random
// patterns fan out into more transactions, which both occupies the LD/ST
// port longer and raises miss traffic — exactly the mechanism that pushes
// warps into the pending set in memory-divergent benchmarks (bfs, MUM).
//
// Real Fermi can issue up to 32 transactions per warp access; the widest
// pattern here issues 8, which preserves the latency/bandwidth contrast
// between patterns at far lower simulation cost. The base index identifies
// the warp's position in its region's working set; rng drives random
// patterns deterministically. The simulator's per-cycle hot path reuses one
// per-warp buffer as dst; with at most 8 transactions, a linear dedup scan
// over the appended suffix beats a freshly allocated set.
func AppendTransactions(dst []Line, pattern isa.AccessPattern, region uint8,
	base uint64, workingLines int, rng *stats.SplitMix64) []Line {
	ws := uint64(workingLines)
	if ws == 0 {
		ws = 1
	}
	mkLine := func(idx uint64) Line {
		// Spread regions far apart in the line-address space so they never
		// alias in caches.
		return Line(uint64(region)<<40 | (idx % ws))
	}
	switch pattern {
	case isa.PatternCoalesced:
		return append(dst, mkLine(base))
	case isa.PatternStrided2:
		for i := 0; i < 2; i++ {
			dst = append(dst, mkLine(base+uint64(i)))
		}
		return dst
	case isa.PatternStrided8:
		for i := 0; i < 8; i++ {
			dst = append(dst, mkLine(base+uint64(i)*3))
		}
		return dst
	case isa.PatternRandom:
		const n = 8
		start := len(dst)
		for len(dst)-start < n {
			l := mkLine(rng.Uint64() % ws)
			dup := false
			for _, e := range dst[start:] {
				if e == l {
					dup = true
					break
				}
			}
			if dup {
				// Duplicate lines coalesce into one transaction; with a
				// small working set this converges to few transactions,
				// which is the correct hardware behaviour.
				if len(dst)-start >= workingLines {
					break
				}
				continue
			}
			dst = append(dst, l)
		}
		return dst
	default:
		return append(dst, mkLine(base))
	}
}
