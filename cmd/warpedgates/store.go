package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"warpedgates/internal/config"
	"warpedgates/internal/core"
	"warpedgates/internal/store"
)

// addStoreFlag registers the shared -store flag: a directory holding the
// durable report store. Every subcommand that runs simulations accepts it;
// reports then persist across processes, and cached results are byte-
// identical to fresh simulation (the golden corpus pins this).
func addStoreFlag(fs *flag.FlagSet) *string {
	return fs.String("store", "",
		"durable report store directory (reports persist across processes; empty = disabled)")
}

// runnerFlags carries the -sms, -scale, -j and -store options shared by
// every subcommand that drives the experiment runner.
type runnerFlags struct {
	sms, jobs *int
	scale     *float64
	store     *string
}

// addRunnerFlags registers the shared runner options on fs.
func addRunnerFlags(fs *flag.FlagSet) *runnerFlags {
	return &runnerFlags{
		sms:   fs.Int("sms", 15, "number of SMs"),
		scale: fs.Float64("scale", 1.0, "workload scale factor"),
		jobs:  fs.Int("j", 0, "max concurrent simulations (0 = all cores)"),
		store: addStoreFlag(fs),
	}
}

// runner builds the GTX480 runner the flags describe. When -store names a
// directory it opens that report store and attaches it as the durable cache
// tier; the store is also returned (nil without -store) for health reporting.
func (f *runnerFlags) runner() (*core.Runner, *store.Store, error) {
	cfg := config.GTX480()
	cfg.NumSMs = *f.sms
	r := core.NewRunner(cfg)
	r.Scale = *f.scale
	r.Parallelism = *f.jobs
	if *f.store == "" {
		return r, nil, nil
	}
	s, err := store.Open(*f.store)
	if err != nil {
		return nil, nil, err
	}
	r.Store = s
	return r, s, nil
}

// reportStoreHealth prints the store's counters to stderr after a run, so
// operators see hit rates and — critically — write errors and quarantines,
// which never fail runs but do mean the durable tier is degraded.
func reportStoreHealth(s *store.Store) {
	if s == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "store %s: %s\n", s.Dir(), s.Health())
}

// cmdStore dispatches the store maintenance subcommands; today that is
// `store verify`, the offline scrub walk.
func cmdStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("store: missing subcommand (try: store verify -store DIR)")
	}
	switch args[0] {
	case "verify":
		return cmdStoreVerify(args[1:])
	default:
		return fmt.Errorf("store: unknown subcommand %q (try: store verify -store DIR)", args[0])
	}
}

// cmdStoreVerify runs the scrub walk: every committed entry re-read and
// checksum-verified, corrupt entries quarantined, crash-orphaned temp files
// swept. It exits non-zero when the walk quarantined anything, so a CI or
// cron invocation alarms on bit-rot while still leaving the store itself in
// a consistent, serving state.
func cmdStoreVerify(args []string) error {
	fs := flag.NewFlagSet("store verify", flag.ExitOnError)
	dir := addStoreFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("store verify: -store DIR is required")
	}
	s, err := store.Open(*dir)
	if err != nil {
		return err
	}
	rep, err := s.Verify()
	if err != nil {
		return err
	}
	fmt.Printf("store %s: %s\n", *dir, rep)
	if n := len(rep.Quarantined); n > 0 {
		return fmt.Errorf("store verify: quarantined %d corrupt entr%s: %s",
			n, plural(n, "y", "ies"), strings.Join(rep.Quarantined, ", "))
	}
	return nil
}

// plural picks the singular or plural suffix for n.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
