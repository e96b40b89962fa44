// Package warpedgates's bench harness regenerates every table and figure of
// the paper's evaluation (§7). One testing.B benchmark exists per figure;
// each prints the same rows/series the paper's figure reports, then times
// the (memoized) regeneration.
//
// Run the full harness with:
//
//	go test -bench=. -benchmem
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
	"warpedgates/internal/isa"
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

// BenchmarkFig1b regenerates paper Figure 1b: the baseline vs conventional
// power gating energy breakdown of the INT and FP units.
func BenchmarkFig1b(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig1b(r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig1b", res.Table)
	}
}

// BenchmarkFig3 regenerates paper Figure 3: the hotspot idle-period-length
// distribution under ConvPG, GATES, and GATES+Blackout.
func BenchmarkFig3(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig3(r, "hotspot")
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig3", res.Table)
	}
}

// BenchmarkFig4 regenerates paper Figure 4: the scheduling walkthrough
// comparing two-level and GATES issue order on the microkernel.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig4()
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig4", res.Table)
	}
}

// BenchmarkFig5a regenerates paper Figure 5a: per-benchmark instruction mix.
func BenchmarkFig5a(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig5a(r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig5a", res.Table)
	}
}

// BenchmarkFig5b regenerates paper Figure 5b: active warp set occupancy.
func BenchmarkFig5b(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig5b(r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig5b", res.Table)
	}
}

// BenchmarkFig6 regenerates paper Figure 6: the critical-wakeup/runtime
// correlation across static idle-detect values 0..10.
func BenchmarkFig6(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig6(r, 0, 10)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig6", res.Table)
	}
}

// BenchmarkFig8a regenerates paper Figure 8a: normalized INT idle-cycle
// fraction under GATES, Coordinated Blackout and Warped Gates.
func BenchmarkFig8a(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig8(r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig8a", res.TableA)
	}
}

// BenchmarkFig8b regenerates paper Figure 8b: compensated-state cycles.
func BenchmarkFig8b(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig8(r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig8b", res.TableB)
	}
}

// BenchmarkFig8c regenerates paper Figure 8c: wakeups normalized to ConvPG.
func BenchmarkFig8c(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig8(r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig8c", res.TableC)
	}
}

// BenchmarkFig9a regenerates paper Figure 9a: INT static energy savings for
// all five techniques (the paper's headline 20.1% -> 31.6%).
func BenchmarkFig9a(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig9(r, isa.INT)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig9a", res.Table)
	}
}

// BenchmarkFig9b regenerates paper Figure 9b: FP static energy savings
// (the paper's headline 31.4% -> 46.5%), excluding integer-only benchmarks.
func BenchmarkFig9b(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig9(r, isa.FP)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig9b", res.Table)
	}
}

// BenchmarkFig10 regenerates paper Figure 10: normalized performance of all
// five techniques.
func BenchmarkFig10(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig10(r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig10", res.Table)
	}
}

// BenchmarkFig11a regenerates paper Figure 11a: sensitivity to break-even
// time (9, 14, 19 cycles).
func BenchmarkFig11a(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig11BET(r, []int{9, 14, 19})
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig11a", res.Table)
	}
}

// BenchmarkFig11b regenerates paper Figure 11b: sensitivity to wakeup delay
// (3, 6, 9 cycles).
func BenchmarkFig11b(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig11Wakeup(r, []int{3, 6, 9})
		if err != nil {
			b.Fatal(err)
		}
		printFigure("fig11b", res.Table)
	}
}

// BenchmarkHWOverhead regenerates paper §7.5: the area and power overhead of
// the added counters, plus the §7.3 chip-level savings estimate.
func BenchmarkHWOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := core.RunHWOverhead(config.GTX480().NumSPClusters)
		printFigure("hw", res.Table)
		printFigure("chip", core.ChipSavings(0.30, 0.45))
	}
}

// BenchmarkAblationClusters extends the paper's §5 discussion of clustered
// GPGPU trends (Fermi 2 clusters, GCN 4, Kepler 6): Warped Gates savings as
// a function of the SP cluster count.
func BenchmarkAblationClusters(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunAblationClusters(r, []int{2, 4, 6})
		if err != nil {
			b.Fatal(err)
		}
		printFigure("ablation-clusters", res.Table)
	}
}

// BenchmarkAblationMaxHold sweeps the GATES forced-priority-switch threshold
// (§4's designer safety valve against starvation).
func BenchmarkAblationMaxHold(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunAblationMaxHold(r, []int{0, 16, 64, 256})
		if err != nil {
			b.Fatal(err)
		}
		printFigure("ablation-maxhold", res.Table)
	}
}

// BenchmarkAblationScheduler compares loose round-robin, the two-level
// scheduler and GATES under conventional gating.
func BenchmarkAblationScheduler(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunAblationScheduler(r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("ablation-scheduler", res.Table)
	}
}

// BenchmarkAblationAuxBlackout extends Blackout to the SFU/LDST units, the
// generalization the paper mentions (§3) but does not evaluate.
func BenchmarkAblationAuxBlackout(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunAblationAuxBlackout(r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("ablation-aux", res.Table)
	}
}

// BenchmarkAblationIdleDetect sweeps the static idle-detect window under
// conventional gating — the naive mitigation §4 dismisses.
func BenchmarkAblationIdleDetect(b *testing.B) {
	r := getRunner()
	for i := 0; i < b.N; i++ {
		res, err := core.RunAblationIdleDetect(r, []int{2, 5, 10, 20})
		if err != nil {
			b.Fatal(err)
		}
		printFigure("ablation-idledetect", res.Table)
	}
}
