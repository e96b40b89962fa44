package core

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"warpedgates/internal/isa"
)

// readRecord parses a committed figure record.
func readRecord(t *testing.T, path string) Values {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ParseValues(string(data))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPaperClaims checks every Claims row against the committed figure
// record of each scale it names, without simulating: golden-scale rows read
// testdata/golden_figures.txt (kept current by TestGoldenFigures) and
// full-scale rows read testdata/paper_figures.txt (kept current by `make
// paper-figures` in CI). Every row must also quote its sentence of
// EXPERIMENTS.md verbatim, so the document and the table cannot drift
// apart.
func TestPaperClaims(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(strings.Fields(string(doc)), " ")
	records := map[ClaimScale]Values{
		GoldenScale: readRecord(t, goldenFiguresPath),
		FullScale:   readRecord(t, paperFiguresPath),
	}
	names := map[string]bool{}
	for _, c := range Claims {
		if names[c.Name] {
			t.Errorf("duplicate claim name %q", c.Name)
		}
		names[c.Name] = true
		if !strings.Contains(text, strings.Join(strings.Fields(c.Sentence), " ")) {
			t.Errorf("%s: EXPERIMENTS.md does not contain %q", c.Name, c.Sentence)
		}
		if !records[GoldenScale].Has(c.Figure) {
			t.Errorf("%s: no figure %q in the record", c.Name, c.Figure)
		}
		for _, s := range []ClaimScale{GoldenScale, FullScale} {
			if !c.AppliesAt(s) {
				continue
			}
			t.Run(c.Name+"/"+s.String(), func(t *testing.T) {
				measured, ok := c.Eval(records[s])
				if !ok {
					t.Errorf("%s claim %q fails at %s scale: measured %s", c.Figure, c.Sentence, s, measured)
				}
			})
		}
	}
}

// TestHeadlineValuesMatchRecord checks that `warpedgates compare` evaluates
// its rows on the values the figure record holds: HeadlineValues on the
// golden runner equals the record's Fig. 9a, 9b and 10 lines.
func TestHeadlineValuesMatchRecord(t *testing.T) {
	fig9a, err := RunFig9(figRunner, isa.INT)
	if err != nil {
		t.Fatal(err)
	}
	fig9b, err := RunFig9(figRunner, isa.FP)
	if err != nil {
		t.Fatal(err)
	}
	fig10, err := RunFig10(figRunner)
	if err != nil {
		t.Fatal(err)
	}
	want := Values{}
	for k, v := range readRecord(t, goldenFiguresPath) {
		id, _, _ := strings.Cut(k, " ")
		if id == "fig9a" || id == "fig9b" || id == "fig10" {
			want[k] = v
		}
	}
	if got := HeadlineValues(fig9a, fig9b, fig10); !reflect.DeepEqual(got, want) {
		t.Errorf("HeadlineValues holds %d values, the record's Fig. 9/10 lines %d", len(got), len(want))
	}
}

// TestClaimEvalMissingValueFails checks that a row reading a value the
// record lacks fails instead of comparing a zero.
func TestClaimEvalMissingValueFails(t *testing.T) {
	for _, c := range Claims {
		if measured, ok := c.Eval(Values{}); ok || !strings.HasPrefix(measured, "missing ") {
			t.Errorf("%s on an empty record: %q, %v", c.Name, measured, ok)
		}
	}
}
