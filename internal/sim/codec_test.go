package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
)

// runSmall produces a real report with non-trivial counters and histograms.
func runSmall(t *testing.T) *Report {
	t.Helper()
	gpu, err := NewGPU(config.Small(), kernels.MustBenchmark("hotspot").Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	return gpu.Run()
}

// TestReportCodecRoundtrip: every field the fingerprints and the power model
// read survives encode→decode, including the per-domain idle histograms.
func TestReportCodecRoundtrip(t *testing.T) {
	rep := runSmall(t)
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatalf("EncodeReport: %v", err)
	}
	got, err := DecodeReport(data)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if got.Cycles != rep.Cycles || got.IssuedTotal != rep.IssuedTotal ||
		got.RanOut != rep.RanOut || got.ActiveWarpAvg != rep.ActiveWarpAvg ||
		got.L1MissRate != rep.L1MissRate {
		t.Fatalf("scalar fields drifted through the codec:\n got  %+v\n want %+v", got, rep)
	}
	for _, c := range []isa.Class{isa.INT, isa.FP, isa.SFU, isa.LDST} {
		d, w := got.Domains[c], rep.Domains[c]
		if d.IdleCycles != w.IdleCycles || d.GatingEvents != w.GatingEvents ||
			d.Wakeups != w.Wakeups || d.CriticalWakeups != w.CriticalWakeups {
			t.Fatalf("domain %s drifted: got %+v want %+v", c, d, w)
		}
		if d.IdlePeriods == nil {
			t.Fatalf("domain %s decoded with nil IdlePeriods", c)
		}
		// Both are published, so both must already be packed.
		if !d.IdlePeriods.Packed() || !w.IdlePeriods.Packed() {
			t.Fatalf("domain %s: decoded histogram packed %v, simulated %v; want both packed",
				c, d.IdlePeriods.Packed(), w.IdlePeriods.Packed())
		}
		if !d.IdlePeriods.Equal(w.IdlePeriods) {
			t.Fatalf("domain %s idle-period histogram drifted through the codec", c)
		}
	}
	// Determinism: encoding is byte-stable, the property the content-addressed
	// store relies on for its "cached equals fresh" guarantee.
	again, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("EncodeReport is not byte-deterministic for the same report")
	}

	// testdata/old_config_report.json is this run as the store held it
	// while the config had three more fields (two ints and a bool: the
	// three config keys the file has and Config lacks). Such entries keep
	// the codec version, so they must decode to the same report and
	// re-encode to the current bytes. If the simulator's output moves,
	// regenerate the file from the new encoding by putting those three keys
	// back, with their values, where the file has them.
	legacy, err := os.ReadFile(filepath.Join("testdata", "old_config_report.json"))
	if err != nil {
		t.Fatal(err)
	}
	old, err := DecodeReport(legacy)
	if err != nil {
		t.Fatalf("DecodeReport of a payload with removed config fields: %v", err)
	}
	if a, b := reportFingerprint(old), reportFingerprint(got); a != b {
		t.Fatalf("payload with removed config fields decoded differently:\n old: %s\n new: %s", a, b)
	}
	if reencoded, err := EncodeReport(old); err != nil || !bytes.Equal(reencoded, data) {
		t.Fatalf("payload with removed config fields re-encodes to other bytes (err %v)", err)
	}
}

// TestReportCodecRejectsForeignVersion: a payload from a future (or corrupt)
// codec version must fail decode — the runner then treats it as a store miss
// rather than serving misinterpreted bytes.
func TestReportCodecRejectsForeignVersion(t *testing.T) {
	if _, err := DecodeReport([]byte(`{"version": 999, "report": {}}`)); err == nil {
		t.Fatal("foreign codec version accepted")
	}
	if _, err := DecodeReport([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeReport(nil); err == nil {
		t.Fatal("empty payload accepted")
	}

}

// TestDecodeReportFillsMissingHistograms: a stored report without idle
// histograms decodes with empty packed ones, as a simulated report has.
func TestDecodeReportFillsMissingHistograms(t *testing.T) {
	rep, err := DecodeReport([]byte(`{"version":1,"report":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	for c := range rep.Domains {
		if h := rep.Domains[c].IdlePeriods; h == nil || !h.Packed() || h.Total() != 0 {
			t.Fatalf("domain %d: %v, want an empty packed histogram", c, h)
		}
	}
}

// FuzzDecodeReport feeds DecodeReport arbitrary bytes — the durable store
// hands it whatever a disk returned. It must never panic, and whatever it
// accepts must re-encode idempotently: encode, decode and encode again gives
// the same bytes, so a decoded report can be committed back to the store
// without drifting.
func FuzzDecodeReport(f *testing.F) {
	// A tiny run: fuzz workers execute this set-up under coverage
	// instrumentation, where simulation is slow.
	gpu, err := NewGPU(config.Small(), kernels.MustBenchmark("hotspot").Scale(0.01))
	if err != nil {
		f.Fatal(err)
	}
	data, err := EncodeReport(gpu.Run())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte(`{"version":1,"report":{}}`))
	f.Add([]byte(`{"version":1,"report":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		first, err := EncodeReport(rep)
		if err != nil {
			t.Fatalf("decoded report does not re-encode: %v", err)
		}
		again, err := DecodeReport(first)
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v", err)
		}
		second, err := EncodeReport(again)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not idempotent:\n first  %s\n second %s", first, second)
		}
	})
}
