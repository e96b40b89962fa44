// Package warpedgates's bench harness regenerates every table and figure of
// the paper's evaluation (§7). One sub-benchmark of BenchmarkFigures exists
// per figure; each prints the same rows/series the paper's figure reports,
// then times the (memoized) regeneration.
//
// Run the full harness, or one figure, with:
//
//	go test -bench=. -benchmem
//	go test -bench=Figures/fig9a -benchtime=1x -run xxx
//
// Environment knobs (for quicker runs on small machines):
//
//	WARPEDGATES_SMS=6      simulate 6 SMs instead of the GTX480's 15
//	WARPEDGATES_SCALE=0.5  halve every benchmark's work
//	WARPEDGATES_J=4        cap the simulation worker pool at 4 (default:
//	                       all cores; figure output is identical at any J)
package warpedgates

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
)

// benchRunner is shared across all figure benchmarks so simulations are run
// exactly once per unique configuration regardless of benchmark order.
var (
	benchRunnerOnce sync.Once
	benchRunner     *core.Runner
)

func getRunner() *core.Runner {
	benchRunnerOnce.Do(func() {
		cfg := config.GTX480()
		if v := os.Getenv("WARPEDGATES_SMS"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				cfg.NumSMs = n
			}
		}
		benchRunner = core.NewRunner(cfg)
		if v := os.Getenv("WARPEDGATES_SCALE"); v != "" {
			if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
				benchRunner.Scale = f
			}
		}
		if v := os.Getenv("WARPEDGATES_J"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				benchRunner.Parallelism = n
			}
		}
	})
	return benchRunner
}

// printOnce prints a figure's table exactly once per process, so bench
// output carries each reproduced figure once regardless of b.N.
var printedFigures sync.Map

func printFigure(id string, body fmt.Stringer) {
	if _, loaded := printedFigures.LoadOrStore(id, true); !loaded {
		fmt.Printf("\n%s\n", body)
	}
}

// BenchmarkFigures regenerates every table of the paper's evaluation, one
// sub-benchmark per core.Figures entry, so -bench=Figures/fig9a runs one.
func BenchmarkFigures(b *testing.B) {
	r := getRunner()
	for _, f := range core.Figures {
		b.Run(f.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab, err := f.Gen(r)
				if err != nil {
					b.Fatal(err)
				}
				printFigure(f.ID, tab)
			}
		})
	}
}
