package sim

import (
	"reflect"
	"sync/atomic"
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// countdownPool is a WorkerPool stub that refuses its first `refuse`
// TryAcquire calls and then grants from a fixed token balance — forcing the
// engine to grow its worker set mid-run rather than at launch. It counts
// grants and releases so tests can prove the lease accounting balances.
type countdownPool struct {
	refuse   atomic.Int64
	tokens   atomic.Int64
	granted  atomic.Int64
	released atomic.Int64
}

func newCountdownPool(refuse, tokens int) *countdownPool {
	p := &countdownPool{}
	p.refuse.Store(int64(refuse))
	p.tokens.Store(int64(tokens))
	return p
}

func (p *countdownPool) TryAcquire(max int) int {
	if p.refuse.Add(-1) >= 0 {
		return 0
	}
	for {
		cur := p.tokens.Load()
		n := int64(max)
		if n > cur {
			n = cur
		}
		if n <= 0 {
			return 0
		}
		if p.tokens.CompareAndSwap(cur, cur-n) {
			p.granted.Add(n)
			return int(n)
		}
	}
}

func (p *countdownPool) Release(n int) { p.released.Add(int64(n)) }

// poolDigests is runDigests with a WorkerPool installed before the run.
func poolDigests(t *testing.T, cfg config.Config, k *kernels.Kernel, pool WorkerPool) (*Report, []uint64) {
	t.Helper()
	gpu, err := NewGPU(cfg, k)
	if err != nil {
		t.Fatalf("NewGPU: %v", err)
	}
	gpu.SetWorkerPool(pool)
	probeD := make([]uint64, cfg.NumSMs)
	for i := range probeD {
		probeD[i] = 14695981039346656037
	}
	gpu.SetCycleProbe(func(smID int, cycle int64, lanes []LaneState) {
		h := probeD[smID]
		h = fnvMix(h, uint64(cycle))
		for _, l := range lanes {
			h = fnvMix(h, uint64(l.Class)<<32|uint64(l.Cluster))
			b := uint64(0)
			if l.Busy {
				b = 1
			}
			h = fnvMix(h, b<<8|uint64(l.State))
		}
		probeD[smID] = h
	})
	return gpu.Run(), probeD
}

// TestWorkerGrowthMidRunMatchesSerial pins tail reallocation: a pool that
// refuses the first several polls and then grants workers forces the engine
// to grow its worker set at a compute-window boundary mid-run. The result
// must still match the serial engine byte for byte, the growth must actually
// happen (granted > 0), and every granted lease must be returned. Covered
// from a two-worker and a one-worker start (a pool-equipped run uses the
// parallel engine even at IntraRunWorkers=1 so it can absorb grants).
func TestWorkerGrowthMidRunMatchesSerial(t *testing.T) {
	for _, bench := range []string{"hotspot", "bfs"} {
		k := kernels.MustBenchmark(bench).Scale(0.08)
		scfg := config.Small()
		scfg.NumSMs = 4
		scfg.Scheduler = config.SchedGATES
		scfg.Gating = config.GateCoordBlackout
		scfg.AdaptiveIdleDetect = true
		scfg.DisableFastForward = true // stepped loop: many compute windows to grow at
		scfg.MaxCycles = 30000
		scfg.IntraRunWorkers = 1
		wantRep, wantProbe, _ := runDigests(t, scfg, k)
		for _, tc := range []struct {
			name    string
			workers int
			refuse  int
			tokens  int
		}{
			{"grow-2to4", 2, 5, 8},
			{"grow-1to4", 1, 3, 8},
			{"late-grow", 2, 40, 8},
		} {
			cfg := scfg
			cfg.IntraRunWorkers = tc.workers
			pool := newCountdownPool(tc.refuse, tc.tokens)
			gotRep, gotProbe := poolDigests(t, cfg, k, pool)
			if !sameReport(wantRep, gotRep) {
				t.Errorf("%s %s: report diverged\nserial: %v\ngot:    %v", bench, tc.name, wantRep, gotRep)
			}
			if !reflect.DeepEqual(wantProbe, gotProbe) {
				t.Errorf("%s %s: probe streams diverged", bench, tc.name)
			}
			if pool.granted.Load() == 0 {
				t.Errorf("%s %s: pool never granted a worker — growth path not exercised", bench, tc.name)
			}
			if g, r := pool.granted.Load(), pool.released.Load(); g != r {
				t.Errorf("%s %s: lease leak: granted %d, released %d", bench, tc.name, g, r)
			}
			if got := int64(tc.tokens) - pool.tokens.Load(); got != pool.granted.Load() {
				t.Errorf("%s %s: token balance off: drained %d, granted %d", bench, tc.name, got, pool.granted.Load())
			}
		}
	}
}
