// Package sweep is the fleet-scale experiment layer: a declarative parameter
// grid (benchmarks × techniques × machine sizes × scales × seeds × gating
// knobs) expands into canonical simulation jobs, deduplicates against the
// runner's tiers (including the durable store), shards across processes over
// the sorted job-key space, and aggregates per-cell reports into one sweep
// report. Cells may run detailed or interval-sampled (see internal/sim's
// sampling mode); sampled cells carry their per-cell error estimate into the
// sweep aggregates.
package sweep

import (
	"fmt"
	"sort"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/kernels"
)

// Spec declares a parameter grid. Empty axes default to the engine's base
// configuration (or, for Benches/Techniques, to the full paper set), so the
// zero Spec expands to the paper's 18×6 matrix at scale 1.0. SampleDetail and
// SamplePeriod select interval-sampled execution for every cell of the sweep
// (both zero = detailed); they are validated by config.Validate per cell.
type Spec struct {
	Benches    []string  `json:"benches,omitempty"`
	Techniques []string  `json:"techniques,omitempty"`
	SMs        []int     `json:"sms,omitempty"`
	Scales     []float64 `json:"scales,omitempty"`
	Seeds      []uint64  `json:"seeds,omitempty"`

	// Gating-knob axes (cycles). Empty = base config's value.
	IdleDetects  []int `json:"idle_detects,omitempty"`
	BreakEvens   []int `json:"break_evens,omitempty"`
	WakeupDelays []int `json:"wakeup_delays,omitempty"`

	SampleDetail int `json:"sample_detail,omitempty"`
	SamplePeriod int `json:"sample_period,omitempty"`
}

// Cell is one fully resolved grid point. Every axis holds a concrete value
// (defaults are resolved at expansion), so a cell is self-describing and its
// canonical job key is a pure function of the cell plus the base machine
// config.
type Cell struct {
	Bench      string         `json:"bench"`
	Technique  core.Technique `json:"-"`
	TechName   string         `json:"technique"`
	SMs        int            `json:"sms"`
	Scale      float64        `json:"scale"`
	Seed       uint64         `json:"seed"`
	IdleDetect int            `json:"idle_detect"`
	BreakEven  int            `json:"break_even"`
	Wakeup     int            `json:"wakeup_delay"`

	SampleDetail int `json:"sample_detail,omitempty"`
	SamplePeriod int `json:"sample_period,omitempty"`
}

// Config projects the cell onto the base machine configuration: technique
// first (scheduler/gating/adaptive), then the cell's explicit axes.
func (c Cell) Config(base config.Config) config.Config {
	cfg := c.Technique.Apply(base)
	cfg.NumSMs = c.SMs
	cfg.Seed = c.Seed
	cfg.IdleDetect = c.IdleDetect
	cfg.BreakEven = c.BreakEven
	cfg.WakeupDelay = c.Wakeup
	cfg.SampleDetailCycles = c.SampleDetail
	cfg.SamplePeriod = c.SamplePeriod
	return cfg
}

// Key returns the cell's canonical job key — the same string the runner's
// durable store is addressed by, so sweep dedup and store dedup agree.
func (c Cell) Key(base config.Config) string {
	return core.JobKey(c.Bench, c.Config(base), c.Scale)
}

// MaxGridCells caps the cross product Expand builds. Specs are untrusted
// input (the service expands client bodies), and a few long axes multiply
// into a grid no machine can hold, so Expand sizes the grid before it
// allocates anything. Callers apply their own, smaller limits on top.
const MaxGridCells = 1 << 20

// Expand resolves the spec's defaults against base and returns the full
// cross product in deterministic axis order (bench, technique, SMs, scale,
// seed, idle-detect, break-even, wakeup). Axis values are deduplicated before
// crossing, so the result is duplicate-free: distinct cells always differ in
// at least one axis and therefore in their canonical key. Unknown benchmark
// or technique names, and grids over MaxGridCells, fail expansion.
func Expand(spec Spec, base config.Config) ([]Cell, error) {
	benches := spec.Benches
	if len(benches) == 0 {
		benches = kernels.BenchmarkNames
	}
	benches = dedup(benches)
	for _, b := range benches {
		if _, err := kernels.Benchmark(b); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	techNames := spec.Techniques
	if len(techNames) == 0 {
		for _, t := range core.AllTechniques() {
			techNames = append(techNames, t.String())
		}
	}
	techNames = dedup(techNames)
	techs := make([]core.Technique, len(techNames))
	for i, name := range techNames {
		t, err := core.ParseTechnique(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		techs[i] = t
	}
	sms := dedup(orDefault(spec.SMs, base.NumSMs))
	scales := dedup(orDefault(spec.Scales, 1.0))
	for _, sc := range scales {
		if err := kernels.CheckScale(sc); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	seeds := dedup(orDefault(spec.Seeds, base.Seed))
	idles := dedup(orDefault(spec.IdleDetects, base.IdleDetect))
	bets := dedup(orDefault(spec.BreakEvens, base.BreakEven))
	wakes := dedup(orDefault(spec.WakeupDelays, base.WakeupDelay))

	// Every axis is non-empty, and n stays at most MaxGridCells, so the
	// products below cannot overflow.
	n := 1
	for _, axis := range []int{len(benches), len(techs), len(sms), len(scales), len(seeds), len(idles), len(bets), len(wakes)} {
		if n > MaxGridCells/axis {
			return nil, fmt.Errorf("sweep: grid expands to more than %d cells", MaxGridCells)
		}
		n *= axis
	}
	cells := make([]Cell, 0, n)
	for _, b := range benches {
		for ti, tech := range techs {
			for _, nsm := range sms {
				for _, sc := range scales {
					for _, seed := range seeds {
						for _, idle := range idles {
							for _, bet := range bets {
								for _, wake := range wakes {
									cells = append(cells, Cell{
										Bench:        b,
										Technique:    tech,
										TechName:     techNames[ti],
										SMs:          nsm,
										Scale:        sc,
										Seed:         seed,
										IdleDetect:   idle,
										BreakEven:    bet,
										Wakeup:       wake,
										SampleDetail: spec.SampleDetail,
										SamplePeriod: spec.SamplePeriod,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// Shard returns the cells of shard i of n under the canonical partition:
// cells sorted by job key, striped round-robin. Striping (rather than
// contiguous ranges) balances work when expensive cells cluster in key space
// — e.g. all of one benchmark's scales sort adjacently. Shards for fixed n
// are disjoint and cover the input exactly; Shard never mutates cells.
func Shard(cells []Cell, base config.Config, i, n int) ([]Cell, error) {
	if n <= 0 || i < 0 || i >= n {
		return nil, fmt.Errorf("sweep: invalid shard %d/%d", i, n)
	}
	if n == 1 {
		return cells, nil
	}
	type keyed struct {
		key  string
		cell Cell
	}
	ordered := make([]keyed, len(cells))
	for j, c := range cells {
		ordered[j] = keyed{key: c.Key(base), cell: c}
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].key < ordered[b].key })
	var out []Cell
	for j := i; j < len(ordered); j += n {
		out = append(out, ordered[j].cell)
	}
	return out, nil
}

// orDefault returns v, or the one-value axis {d} when v is empty.
func orDefault[T any](v []T, d T) []T {
	if len(v) == 0 {
		return []T{d}
	}
	return v
}

// dedup returns v's distinct values in first-seen order, in a new slice.
func dedup[T comparable](v []T) []T {
	seen := make(map[T]bool, len(v))
	out := v[:0:0]
	for _, x := range v {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
