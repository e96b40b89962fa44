package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/kernels"
)

// Regenerate the corpus after an intentional model change with:
//
//	go test ./internal/core -run GoldenMatrix -update
//
// (The flag lives only in this package, so pass the package path explicitly —
// `go test ./... -update` would fail unrelated test binaries.)
var updateGolden = flag.Bool("update", false, "rewrite the golden corpus under testdata/")

const goldenMatrixPath = "testdata/golden_matrix.txt"

// goldenMatrixScale keeps corpus regeneration and drift checks to a couple
// of seconds while still covering every benchmark and technique.
const goldenMatrixScale = 0.1

const goldenHeader = `# Golden corpus: fingerprint of every benchmark x technique cell at
# config.Small() scale ` + "0.1" + `. One line per cell: bench technique counters.
# Regenerate after an intentional model change:
#   go test ./internal/core -run GoldenMatrix -update
`

// goldenRunner builds the corpus runner on every core.
func goldenRunner() *Runner {
	r := NewRunner(config.Small())
	r.Scale = goldenMatrixScale
	return r
}

// goldenCorpus renders the full corpus file content for runner r.
func goldenCorpus(r *Runner) (string, error) {
	body, err := MatrixFingerprint(r, kernels.BenchmarkNames, AllTechniques())
	if err != nil {
		return "", err
	}
	return goldenHeader + body, nil
}

// TestGoldenMatrixCorpus pins the complete 18-benchmark × 6-technique matrix
// against the committed corpus, line by line. Any behavioural drift in the
// simulator — scheduling, gating, memory, even a float rounding change —
// shows up as a named (bench, technique) diff here.
func TestGoldenMatrixCorpus(t *testing.T) {
	got, err := goldenCorpus(goldenRunner())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenMatrixPath, got, "GoldenMatrix")
}

// checkGolden compares got against the committed golden file at path line by
// line, or rewrites the file under -update. name is the -run pattern that
// regenerates it, quoted in every failure.
func checkGolden(t *testing.T, path, got, name string) {
	t.Helper()
	regen := "go test ./internal/core -run " + name + " -update"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: %s)", err, regen)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%s has %d lines, committed file has %d", path, len(gotLines), len(wantLines))
	}
	diffs := 0
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] == wantLines[i] {
			continue
		}
		diffs++
		if diffs <= 5 {
			t.Errorf("line %d drifted:\n  got:  %s\n  want: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s drift: %d line(s) differ (intentional change? regenerate with: %s)", path, diffs, regen)
}

// TestGoldenMatrixParallelismStable is the byte-stability acceptance check:
// a -j 1 and a -j 8 runner render the identical corpus. Fresh runners on both
// sides, so nothing is served from a shared cache.
func TestGoldenMatrixParallelismStable(t *testing.T) {
	if testing.Short() {
		t.Skip("serial full matrix is slow; skipped with -short")
	}
	corpus := func(par int) string {
		r := goldenRunner()
		r.Parallelism = par
		got, err := goldenCorpus(r)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial, parallel := corpus(1), corpus(8)
	if serial != parallel {
		sl, pl := strings.Split(serial, "\n"), strings.Split(parallel, "\n")
		for i := 0; i < len(sl) && i < len(pl); i++ {
			if sl[i] != pl[i] {
				t.Fatalf("corpus not byte-stable across -j 1 vs -j 8; first diff at line %d:\n  -j 1: %s\n  -j 8: %s",
					i+1, sl[i], pl[i])
			}
		}
		t.Fatal("corpus not byte-stable across -j 1 vs -j 8 (length mismatch)")
	}
}
