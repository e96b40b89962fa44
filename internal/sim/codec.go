package sim

import (
	"encoding/json"
	"fmt"

	"warpedgates/internal/isa"
	"warpedgates/internal/stats"
)

// The report codec turns a finished *Report into the byte payload the durable
// report store persists, and back. The encoding is versioned JSON: every
// field of Report is exported and either integer-valued or a float64 (which
// encoding/json renders in its shortest exact round-trip form), and the idle
// histograms marshal deterministically (stats.Histogram.MarshalJSON), so the
// same report always encodes to the same bytes and a decoded report is
// observably identical to the original — FingerprintReport equality is the
// pinned contract (see TestReportCodecRoundTrip and the cold-store golden
// corpus test in internal/core).

// reportCodecVersion is bumped whenever Report's encoded shape changes in a
// way old readers cannot handle; DecodeReport rejects mismatches so the store
// treats entries written by a different shape as misses instead of
// misinterpreting them.
const reportCodecVersion = 1

// reportEnvelope wraps the report with its codec version on the wire.
type reportEnvelope struct {
	Version int     `json:"version"`
	Report  *Report `json:"report"`
}

// EncodeReport renders r as the canonical durable-store payload.
func EncodeReport(r *Report) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("sim: cannot encode a nil report")
	}
	data, err := json.Marshal(reportEnvelope{Version: reportCodecVersion, Report: r})
	if err != nil {
		return nil, fmt.Errorf("sim: encoding report for %s: %w", r.Benchmark, err)
	}
	return data, nil
}

// DecodeReport parses a payload produced by EncodeReport. Version mismatches
// and structural damage return an error (callers treat it as a store miss);
// a successful decode always carries non-nil packed idle histograms, so
// consumers never need to distinguish decoded from freshly simulated reports.
func DecodeReport(data []byte) (*Report, error) {
	var env reportEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("sim: decoding report: %w", err)
	}
	if env.Version != reportCodecVersion {
		return nil, fmt.Errorf("sim: report codec version %d, want %d", env.Version, reportCodecVersion)
	}
	if env.Report == nil {
		return nil, fmt.Errorf("sim: report payload missing")
	}
	r := env.Report
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if r.Domains[c].IdlePeriods == nil {
			r.Domains[c].IdlePeriods = stats.NewHistogram()
			r.Domains[c].IdlePeriods.Pack()
		}
	}
	return r, nil
}
