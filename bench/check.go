package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/sim"
)

// checker counts the operations a run attempted and the ones that failed:
// a report that could not be produced or whose content is wrong, and each
// whole-run output check that did not hold. Safe for concurrent use.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (c *checker) op(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.problems) < 20 {
			c.problems = append(c.problems, err.Error())
		}
	}
}

// keyed is one report under its canonical job key.
type keyed struct {
	key string
	rep *sim.Report
}

// digest is the SHA-256 of the sorted "key fingerprint" lines of a set of
// reports: equal digests mean every simulated counter the paper's figures
// derive from is equal, cell by cell.
func digest(reps []keyed) string {
	lines := make([]string, len(reps))
	for i, r := range reps {
		lines[i] = r.key + " " + core.FingerprintReport(r.rep)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestPath is where the committed digest of a workload at a seed lives.
func digestPath(dir, workload string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.seed%d.sha256", workload, seed))
}

// checkDigest compares got with the committed digest for the workload and
// seed, or rewrites the committed file when update is set. A missing file
// is an error only at seed 1, the seed whose digests are committed.
func checkDigest(dir, workload string, seed uint64, got string, update bool) error {
	path := digestPath(dir, workload, seed)
	if update {
		return os.WriteFile(path, []byte(got+"\n"), 0o644)
	}
	want, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) && seed != 1 {
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s: reading committed digest: %w", workload, err)
	}
	if w := strings.TrimSpace(string(want)); w != got {
		return fmt.Errorf("%s: output digest %s differs from committed %s (%s)", workload, got, w, path)
	}
	return nil
}

// conserves checks that a simulation did all the work its kernel asked for
// and no more: every warp of every CTA on every SM issued every instruction
// of every iteration, every CTA completed, and the run did not hit its cycle
// cap. It holds for any seed, so it checks outputs no digest covers.
func conserves(bench string, cfg config.Config, scale float64, rep *sim.Report) error {
	k, err := kernels.Benchmark(bench)
	if err != nil {
		return err
	}
	k = k.Scale(scale)
	ctas := k.CTAsPerSM * cfg.NumSMs
	issued := uint64(k.TotalWarpInstructions()) * uint64(k.WarpsPerCTA) * uint64(ctas)
	switch {
	case rep.RanOut:
		return fmt.Errorf("%s: run hit its cycle cap", bench)
	case rep.CTAsCompleted != ctas:
		return fmt.Errorf("%s: %d CTAs completed, want %d", bench, rep.CTAsCompleted, ctas)
	case rep.IssuedTotal != issued:
		return fmt.Errorf("%s: %d warp-instructions issued, want %d", bench, rep.IssuedTotal, issued)
	}
	return nil
}

// modelMetrics are the simulated-time statistics of a set of reports. They
// depend only on the inputs, never on host speed or tracing, so a change
// that only speeds the simulator up must leave every one identical.
func modelMetrics(reps []keyed, m metrics) {
	var cycles, smCycles, instrs, l2, dram, stallsMem, stallsGate, wakeups, critical uint64
	var intGated, intCells, l1 float64
	for _, r := range reps {
		rep := r.rep
		cycles += uint64(rep.Cycles)
		smCycles += uint64(rep.Cycles) * uint64(rep.Config.NumSMs)
		instrs += rep.IssuedTotal
		l1 += rep.L1MissRate
		l2 += rep.L2Stats[0]
		dram += rep.L2Stats[2]
		stallsMem += rep.IssueStallsMem
		stallsGate += rep.IssueStallsGate
		d := &rep.Domains[isa.INT]
		intGated += float64(d.GatedCycles)
		intCells += float64(d.CellCycles())
		for c := range rep.Domains {
			wakeups += rep.Domains[c].Wakeups
			critical += rep.Domains[c].CriticalWakeups
		}
	}
	m.set("model.cycles", float64(cycles))
	m.set("model.warp_instrs", float64(instrs))
	m.set("model.ipc_per_sm", ratio(float64(instrs), float64(smCycles)))
	m.set("mem.l1_miss_rate_mean", ratio(l1, float64(len(reps))))
	m.set("mem.l2_accesses", float64(l2))
	m.set("mem.dram_requests", float64(dram))
	m.set("sched.stalls_mem", float64(stallsMem))
	m.set("sched.stalls_gate", float64(stallsGate))
	m.set("gating.int_gated_frac", ratio(intGated, intCells))
	m.set("gating.wakeups", float64(wakeups))
	m.set("gating.critical_wakeups", float64(critical))
}

// modelNames are the metrics modelMetrics sets, plus the Figure 9 savings
// the paper matrix adds: the statistics a traced and an untraced run must
// agree on exactly.
var modelNames = []string{
	"model.cycles", "model.warp_instrs", "model.ipc_per_sm", "mem.l1_miss_rate_mean",
	"mem.l2_accesses", "mem.dram_requests", "sched.stalls_mem", "sched.stalls_gate",
	"gating.int_gated_frac", "gating.wakeups", "gating.critical_wakeups",
	"power.fig9a_wg_int_savings", "power.fig9b_wg_fp_savings",
}

// sameModel returns an error naming the first modelled metric on which two
// runs differ.
func sameModel(a, b metrics) error {
	for _, name := range modelNames {
		if a[name].V != b[name].V {
			return fmt.Errorf("modelled metric %s differs between untraced (%v) and traced (%v) runs",
				name, a[name].V, b[name].V)
		}
	}
	return nil
}
