# Tier-1 verification is `make check`; `make ci` adds vet and the race
# detector, which is what makes the concurrent experiment runner
# (singleflight cache + worker pool) trustworthy.

GO ?= go

.PHONY: build test race vet bench bench-short bench-cells bench-compare bench-history bench-go calibrate check verify store-faults serve-test sweep-test ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# The race run matters most for internal/core (the concurrent runner), but
# runs the whole module so nothing regresses silently.
race:
	$(GO) test -race ./...

# The profiled bench harness: times the full benchmark × technique matrix
# one cell at a time, measures the steady-state per-cycle cost (which must
# report 0 allocs/cycle) and the full-matrix makespan through the job-level
# runner, and writes BENCH_sim.json.
# bench-short is the CI-sized variant.
bench:
	$(GO) run ./cmd/warpedgates bench -sms 6 -scale 0.25 -out BENCH_sim.json

bench-short:
	$(GO) run ./cmd/warpedgates bench -sms 2 -scale 0.1 -out BENCH_sim.json

# Regenerate the committed cost-model calibration table. Deterministic: a
# diff against the committed file means the simulator's cycle counts moved
# (commit the new table with the change that moved them).
calibrate:
	$(GO) run ./cmd/warpedgates bench -calibrate internal/core/costdata.json

# Cell-by-cell comparison of two bench artifacts:
#   make bench-compare OLD=BENCH_old.json NEW=BENCH_sim.json
OLD ?= BENCH_old.json
NEW ?= BENCH_sim.json
bench-compare:
	$(GO) run ./cmd/warpedgates benchcmp $(OLD) $(NEW)

# Trajectory across every BENCH_*.json snapshot in DIR (filename order =
# chronology for date-stamped names), gated: exits nonzero when the newest
# snapshot's steady-state ns/cycle regresses more than REGRESS% against the
# best snapshot in the trajectory.
DIR ?= .
REGRESS ?= 10
bench-history:
	$(GO) run ./cmd/warpedgates benchcmp -history $(DIR) -regress $(REGRESS)

# Go micro-benchmarks of the internal packages; sub-benchmark names are
# stable so
#   go test -bench Matrix -count 10 ./internal/sim | benchstat old.txt new.txt
# compares cells across commits. The root figure harness (BenchmarkFigures,
# 15 SMs at full scale) is left out: run it with go test -bench=Figures.
bench-go:
	$(GO) test -bench=. -benchmem -benchtime=1x ./internal/...

# The short-cell hot loop: the 18x6 matrix on config.Small() at scale 0.1,
# one sub-benchmark per technique reporting ns/SM-cycle. Compare commits with
#   make bench-cells > old.txt; (change); make bench-cells > new.txt
#   benchstat old.txt new.txt
bench-cells:
	$(GO) test -run '^$$' -bench SmallCells -count 10 ./internal/core

check: build test

# The verification harness: the full benchmark × technique matrix under the
# cycle-level invariant checker (with the race detector — the checked matrix
# exercises the parallel job runner), the golden-corpus drift check, and
# checked end-to-end runs of the verify subcommand on a small machine.
# Regenerate the corpus after an intentional model change with:
#   go test ./internal/core -run GoldenMatrix -update
# The -store run is the durability proof: the checked matrix populates a
# fresh store, a cold runner replays every cell from it, and the command
# fails unless all 108 reports come back byte-identical to fresh simulation.
# The store is a temporary directory, removed afterwards whatever the outcome.
verify:
	$(GO) test -race ./internal/check/
	$(GO) test ./internal/core -run GoldenMatrix
	$(GO) run ./cmd/warpedgates verify -sms 2 -scale 0.1
	store="$$(mktemp -d)" || exit 1; \
	$(GO) run ./cmd/warpedgates verify -sms 2 -scale 0.1 -store "$$store"; \
	status=$$?; rm -rf "$$store"; exit $$status

# The crash-safety suite under the race detector: the durable report store,
# its fault-injection filesystem (fail-nth-write sweeps, torn writes, ENOSPC,
# read corruption), and the runner's cancellation and panic paths.
store-faults:
	$(GO) test -race ./internal/store/ ./internal/faultfs/
	$(GO) test -race -run 'TestRunCtx|TestRunMany|TestPanic|TestLRU|TestSingleflight|TestRunnerStore' ./internal/core/

# The HTTP service suite under the race detector: the table-driven API
# contract (status codes, quota/backpressure 429s, drain 503s), the
# end-to-end lifecycle test (served report bytes equal direct simulation,
# across a server restart with zero re-simulation), and the
# cancellation/deadline semantics (SSE disconnect, deadline_ms, forced
# drain).
serve-test:
	$(GO) test -race ./internal/serve/

# The sweep-engine suite under the race detector: grid expansion and shard
# partition properties, the end-to-end store-dedup proof (re-running a
# >500-cell sweep on a cold engine simulates zero cells — every cell is a
# store hit), the sampled-sweep speedup run (>= 3x fewer simulated cycles),
# the sampled-mode golden-corpus tests (every corpus cell run detailed and
# sampled once: cycle error within the documented 5% bound, instruction/CTA
# counts conserved exactly, the codec round trip, a byte-identical rerun),
# and the service's sweep endpoints.
sweep-test:
	$(GO) test -race ./internal/sweep/
	$(GO) test -race -run 'TestSampled' ./internal/sim/
	$(GO) test -race -run 'TestSweep|TestSampledJob' ./internal/serve/

ci: build vet test race verify store-faults serve-test sweep-test
