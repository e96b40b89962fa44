package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"warpedgates/internal/config"
	"warpedgates/internal/store"
	"warpedgates/internal/sweep"
)

// readSpec strictly decodes a sweep spec file: unknown fields and anything
// but whitespace after the one JSON value are errors, as for the service's
// request bodies (json.Decoder alone would stop reading after the first
// value and silently drop the rest of the file).
func readSpec(path string) (sweep.Spec, error) {
	var spec sweep.Spec
	f, err := os.Open(path)
	if err != nil {
		return spec, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	err = dec.Decode(&spec)
	if err == nil {
		var extra json.RawMessage
		if err = dec.Decode(&extra); err == io.EOF {
			return spec, nil
		}
		err = errors.New("trailing data after the JSON value")
	}
	return spec, fmt.Errorf("sweep spec %s: %w", path, err)
}

// cmdSweep runs a declarative parameter-grid sweep: a spec (JSON file and/or
// axis flags) expands to canonical jobs, deduplicates against the report
// store, optionally takes one shard of the sorted job-key space, and writes
// a per-sweep JSON report with aggregates.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	specPath := fs.String("spec", "", "JSON sweep spec file (flags below override its axes)")
	benches := fs.String("benches", "", "comma-separated benchmark names (empty = all)")
	techs := fs.String("techniques", "", "comma-separated technique names (empty = all)")
	smsList := fs.String("sms", "", "comma-separated SM counts (empty = base config)")
	scales := fs.String("scales", "", "comma-separated workload scales (empty = 1.0)")
	seeds := fs.String("seeds", "", "comma-separated seeds (empty = base config)")
	idles := fs.String("idle-detects", "", "comma-separated idle-detect thresholds (empty = base config)")
	bets := fs.String("break-evens", "", "comma-separated break-even times (empty = base config)")
	wakes := fs.String("wakeup-delays", "", "comma-separated wakeup delays (empty = base config)")
	sample := fs.String("sample", "", "interval sampling as detail/period cycles, e.g. 1000/5000 (empty = detailed)")
	shard := fs.String("shard", "", "run only shard i/n of the sorted job-key space, e.g. 0/4")
	jobs := fs.Int("j", 0, "max concurrent cells (0 = all cores)")
	storeDir := addStoreFlag(fs)
	out := fs.String("out", "", "write the full sweep report as JSON to this file")
	verbose := fs.Bool("v", false, "print per-cell progress")
	dry := fs.Bool("n", false, "expand and print the cell count and keys, run nothing")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var spec sweep.Spec
	if *specPath != "" {
		var err error
		if spec, err = readSpec(*specPath); err != nil {
			return err
		}
	}
	if *benches != "" {
		spec.Benches = splitList(*benches)
	}
	if *techs != "" {
		spec.Techniques = splitList(*techs)
	}
	var err error
	if spec.SMs, err = overrideInts(*smsList, spec.SMs); err != nil {
		return fmt.Errorf("-sms: %w", err)
	}
	if spec.IdleDetects, err = overrideInts(*idles, spec.IdleDetects); err != nil {
		return fmt.Errorf("-idle-detects: %w", err)
	}
	if spec.BreakEvens, err = overrideInts(*bets, spec.BreakEvens); err != nil {
		return fmt.Errorf("-break-evens: %w", err)
	}
	if spec.WakeupDelays, err = overrideInts(*wakes, spec.WakeupDelays); err != nil {
		return fmt.Errorf("-wakeup-delays: %w", err)
	}
	if *scales != "" {
		spec.Scales = spec.Scales[:0]
		for _, s := range splitList(*scales) {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("-scales: %w", err)
			}
			spec.Scales = append(spec.Scales, f)
		}
	}
	if *seeds != "" {
		spec.Seeds = spec.Seeds[:0]
		for _, s := range splitList(*seeds) {
			u, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return fmt.Errorf("-seeds: %w", err)
			}
			spec.Seeds = append(spec.Seeds, u)
		}
	}
	if *sample != "" {
		d, p, err := parseSample(*sample)
		if err != nil {
			return err
		}
		spec.SampleDetail, spec.SamplePeriod = d, p
	}
	shardI, shardN, err := parseShard(*shard)
	if err != nil {
		return err
	}

	base := config.GTX480()
	if *dry {
		cells, err := sweep.Expand(spec, base)
		if err != nil {
			return err
		}
		if cells, err = sweep.Shard(cells, base, shardI, shardN); err != nil {
			return err
		}
		fmt.Printf("%d cells\n", len(cells))
		for _, c := range cells {
			fmt.Println(c.Key(base))
		}
		return nil
	}

	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir); err != nil {
			return err
		}
	}
	eng := &sweep.Engine{
		Base:        base,
		Store:       st,
		Parallelism: *jobs,
	}
	if *verbose {
		eng.Progress = func(done, total int, res sweep.CellResult) {
			status := fmt.Sprintf("cycles=%d", res.Cycles)
			if res.Err != "" {
				status = "error: " + res.Err
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %s\n", done, total, res.Key, status)
		}
	}
	rep, err := eng.Run(context.Background(), spec, shardI, shardN)
	reportStoreHealth(st)
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d cells failed", rep.Failed, rep.Cells)
	}
	return nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// overrideInts parses a comma-separated int list, keeping prev when the flag
// is unset.
func overrideInts(s string, prev []int) ([]int, error) {
	if s == "" {
		return prev, nil
	}
	var out []int
	for _, v := range splitList(s) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// parseSample parses the detail/period pair of the -sample flag.
func parseSample(s string) (detail, period int, err error) {
	d, p, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-sample: want detail/period cycles, e.g. 1000/5000, got %q", s)
	}
	if detail, err = strconv.Atoi(d); err != nil {
		return 0, 0, fmt.Errorf("-sample: %w", err)
	}
	if period, err = strconv.Atoi(p); err != nil {
		return 0, 0, fmt.Errorf("-sample: %w", err)
	}
	return detail, period, nil
}

// parseShard parses -shard i/n; empty means the whole grid.
func parseShard(s string) (i, n int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard: want i/n, e.g. 0/4, got %q", s)
	}
	if i, err = strconv.Atoi(a); err != nil {
		return 0, 0, fmt.Errorf("-shard: %w", err)
	}
	if n, err = strconv.Atoi(b); err != nil {
		return 0, 0, fmt.Errorf("-shard: %w", err)
	}
	return i, n, nil
}
