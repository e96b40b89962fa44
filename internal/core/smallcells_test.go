package core

import (
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// BenchmarkSmallCells runs the paper's 18×6 matrix of short cells — two SMs
// (config.Small) at scale 0.1, the cell size sweeps and the service run by
// the thousand — through a fresh Runner, so the stepped hot loop dominates
// and no cache or store answers a cell. There is one sub-benchmark per
// technique, each iteration simulating its 18 cells on one worker (the
// serial engine), and a PhaseSplit sub-benchmark that runs all 108 cells
// through RunMany on two workers under the adaptive schedule: its lease pool
// routes every cell through the phase-split engine, as in sweeps, the
// service and the repository benchmark. Each reports host ns per simulated
// SM-cycle. The names are stable, so hot-loop changes compare in seconds:
//
//	make bench-cells > new.txt   # on each commit
//	benchstat old.txt new.txt
func BenchmarkSmallCells(b *testing.B) {
	base := config.Small()
	run := func(b *testing.B, jobs []Job, workers int) {
		var smCycles int64
		for i := 0; i < b.N; i++ {
			r := NewRunner(base)
			r.Scale = 0.1
			r.Parallelism = workers
			reps, err := r.RunMany(jobs)
			if err != nil {
				b.Fatal(err)
			}
			for _, rep := range reps {
				smCycles += rep.Cycles * int64(rep.Config.NumSMs)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(smCycles), "ns/SM-cycle")
	}
	for _, tech := range AllTechniques() {
		jobs := techniqueJobs(base, kernels.BenchmarkNames, tech)
		b.Run(tech.String(), func(b *testing.B) { run(b, jobs, 1) })
	}
	all := techniqueJobs(base, kernels.BenchmarkNames, AllTechniques()...)
	b.Run("PhaseSplit", func(b *testing.B) { run(b, all, 2) })
}
