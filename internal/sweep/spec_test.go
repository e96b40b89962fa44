package sweep

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// randomSpec draws a spec with random non-empty subsets of the valid axis
// pools (including deliberate duplicates, which Expand must fold away).
func randomSpec(r *rand.Rand) Spec {
	pick := func(pool []string) []string {
		n := 1 + r.Intn(len(pool))
		out := make([]string, n)
		for i := range out {
			out[i] = pool[r.Intn(len(pool))] // duplicates allowed
		}
		return out
	}
	techPool := []string{"Baseline", "ConvPG", "GATES", "NaiveBlackout", "CoordBlackout", "WarpedGates"}
	spec := Spec{
		Benches:    pick(kernels.BenchmarkNames),
		Techniques: pick(techPool),
	}
	if r.Intn(2) == 0 {
		for i := 0; i < 1+r.Intn(2); i++ {
			spec.SMs = append(spec.SMs, 2+r.Intn(4))
		}
	}
	if r.Intn(2) == 0 {
		for i := 0; i < 1+r.Intn(3); i++ {
			spec.Scales = append(spec.Scales, float64(1+r.Intn(4))/10)
		}
	}
	if r.Intn(2) == 0 {
		for i := 0; i < 1+r.Intn(2); i++ {
			spec.Seeds = append(spec.Seeds, r.Uint64()%16)
		}
	}
	if r.Intn(2) == 0 {
		for i := 0; i < 1+r.Intn(2); i++ {
			spec.IdleDetects = append(spec.IdleDetects, 1+r.Intn(8))
		}
	}
	return spec
}

// TestExpandDeterministicAndDuplicateFree is the satellite property test:
// for random specs, expansion is stable across calls, every cell's canonical
// job key is unique, and the cell count is exactly the product of the
// deduplicated axis cardinalities.
func TestExpandDeterministicAndDuplicateFree(t *testing.T) {
	base := config.Small()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := randomSpec(r)
		a, err := Expand(spec, base)
		if err != nil {
			t.Logf("seed %d: expand failed: %v", seed, err)
			return false
		}
		b, err := Expand(spec, base)
		if err != nil || !reflect.DeepEqual(a, b) {
			t.Logf("seed %d: expansion not deterministic", seed)
			return false
		}
		keys := make(map[string]bool, len(a))
		for _, c := range a {
			k := c.Key(base)
			if keys[k] {
				t.Logf("seed %d: duplicate key %s", seed, k)
				return false
			}
			keys[k] = true
		}
		want := len(dedupStrings(spec.Benches)) * len(dedupStrings(spec.Techniques)) *
			len(dedupInts(defaultInts(spec.SMs, base.NumSMs))) *
			len(dedupFloats(defaultFloats(spec.Scales, 1.0))) *
			len(dedupUints(defaultUints(spec.Seeds, base.Seed))) *
			len(dedupInts(defaultInts(spec.IdleDetects, base.IdleDetect)))
		if len(a) != want {
			t.Logf("seed %d: got %d cells, want %d", seed, len(a), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestShardPartition is the satellite property test for -shard i/n: for
// several n, the shards are pairwise disjoint, their union is exactly the
// full grid, and sizes are balanced to within one cell.
func TestShardPartition(t *testing.T) {
	base := config.Small()
	spec := Spec{
		Benches:    []string{"nw", "hotspot", "mri", "bfs", "kmeans"},
		Techniques: []string{"Baseline", "ConvPG", "WarpedGates"},
		Scales:     []float64{0.1, 0.2},
		Seeds:      []uint64{1, 2, 3},
	}
	cells, err := Expand(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	all := make(map[string]bool, len(cells))
	for _, c := range cells {
		all[c.Key(base)] = true
	}
	for _, n := range []int{1, 2, 3, 5, 8, len(cells), len(cells) + 7} {
		seen := make(map[string]int, len(cells))
		for i := 0; i < n; i++ {
			shard, err := Shard(cells, base, i, n)
			if err != nil {
				t.Fatalf("Shard(%d/%d): %v", i, n, err)
			}
			if max, min := len(cells)/n+1, len(cells)/n; len(shard) > max || len(shard) < min {
				t.Errorf("shard %d/%d has %d cells, want %d..%d", i, n, len(shard), min, max)
			}
			for _, c := range shard {
				seen[c.Key(base)]++
			}
		}
		if len(seen) != len(all) {
			t.Fatalf("n=%d: shards cover %d keys, grid has %d", n, len(seen), len(all))
		}
		for k, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("n=%d: key %s appears in %d shards", n, k, cnt)
			}
			if !all[k] {
				t.Fatalf("n=%d: shard key %s not in the grid", n, k)
			}
		}
	}
}

// TestShardRejectsInvalid pins the parameter contract.
func TestShardRejectsInvalid(t *testing.T) {
	base := config.Small()
	cells := []Cell{{Bench: "nw"}}
	for _, bad := range [][2]int{{0, 0}, {-1, 2}, {2, 2}, {1, -1}} {
		if _, err := Shard(cells, base, bad[0], bad[1]); err == nil {
			t.Errorf("Shard(%d/%d) accepted", bad[0], bad[1])
		}
	}
}

// TestExpandRejectsUnknownNames pins expansion validation.
func TestExpandRejectsUnknownNames(t *testing.T) {
	base := config.Small()
	if _, err := Expand(Spec{Benches: []string{"nope"}}, base); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Expand(Spec{Techniques: []string{"nope"}}, base); err == nil {
		t.Error("unknown technique accepted")
	}
}

// TestExpandZeroSpecIsPaperMatrix pins the default grid: the zero spec is
// the paper's benches × techniques matrix at scale 1.0.
func TestExpandZeroSpecIsPaperMatrix(t *testing.T) {
	base := config.Small()
	cells, err := Expand(Spec{}, base)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(kernels.BenchmarkNames) * 6; len(cells) != want {
		t.Fatalf("zero spec expands to %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Scale != 1.0 || c.SMs != base.NumSMs || c.Seed != base.Seed {
			t.Fatalf("zero-spec cell did not inherit defaults: %+v", c)
		}
	}
}

// TestExpandRejectsHugeGrids pins the size check Expand makes before it
// allocates: a grid just over MaxGridCells and one whose cell count
// overflows int both fail with an error, never a panic or a giant
// allocation.
func TestExpandRejectsHugeGrids(t *testing.T) {
	base := config.Small()
	ints := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	seeds := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i)
		}
		return out
	}
	scales := make([]float64, 1000)
	for i := range scales {
		scales[i] = float64(i+1) / 1000
	}
	for name, spec := range map[string]Spec{
		"one cell over the ceiling": {
			Benches: []string{"nw"}, Techniques: []string{"Baseline"},
			Seeds: seeds(1025), IdleDetects: ints(1024),
		},
		// 18 × 6 × 1000^6 ≈ 1.1e20 cells: the product overflows int64.
		"product overflows int": {
			SMs: ints(1000), Scales: scales, Seeds: seeds(1000),
			IdleDetects: ints(1000), BreakEvens: ints(1000), WakeupDelays: ints(1000),
		},
	} {
		cells, err := Expand(spec, base)
		if err == nil {
			t.Errorf("%s: expanded to %d cells, want an error", name, len(cells))
		}
	}
}
