package core

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"warpedgates/internal/isa"
)

// Values holds a figure record's full-precision values, keyed by the record
// line that carries each one without its value: "<figure-id> <key>…", as in
// "fig9a average WarpedGates".
type Values map[string]float64

// ParseValues reads the value lines of a figure record: every line whose
// first field is a figure ID of the Figures catalogue, split at its last
// space into key and value. Tables, section headers and comments are
// skipped.
func ParseValues(record string) (Values, error) {
	ids := map[string]bool{}
	for _, f := range Figures {
		ids[f.ID] = true
	}
	v := Values{}
	sc := bufio.NewScanner(strings.NewReader(record))
	for sc.Scan() {
		line := sc.Text()
		first, _, _ := strings.Cut(line, " ")
		if !ids[first] {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		x, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("core: figure record line %q: %v", line, err)
		}
		v[line[:i]] = x
	}
	return v, sc.Err()
}

// Has reports whether v holds any value of the figure id.
func (v Values) Has(id string) bool {
	for k := range v {
		if strings.HasPrefix(k, id+" ") {
			return true
		}
	}
	return false
}

// emitFunc writes one record value under its key path.
type emitFunc func(v float64, path ...string)

// emitTechs writes one value per technique present in m, in Technique order.
func emitTechs(emit emitFunc, m map[Technique]float64, path ...string) {
	for t := Baseline; t < NumTechniques; t++ {
		if v, ok := m[t]; ok {
			emit(v, append(path, t.String())...)
		}
	}
}

// fig9ID is the figure ID of a Fig. 9 panel: fig9a for INT, fig9b for FP.
func fig9ID(class isa.Class) string {
	if class == isa.FP {
		return "fig9b"
	}
	return "fig9a"
}

// emitFig9 writes a Fig. 9 panel's per-benchmark savings and suite average.
func emitFig9(emit emitFunc, res *Fig9Result) {
	id := fig9ID(res.Class)
	for _, row := range res.Rows {
		emitTechs(emit, row.Savings, id, row.Benchmark)
	}
	emitTechs(emit, res.Average, id, "average")
}

// emitFig10 writes Fig. 10's per-benchmark performance and geomean.
func emitFig10(emit emitFunc, res *Fig10Result) {
	for _, row := range res.Rows {
		emitTechs(emit, row.Performance, "fig10", row.Benchmark)
	}
	emitTechs(emit, res.Geomean, "fig10", "geomean")
}

// HeadlineValues holds the values the figure record writes for Figs. 9a, 9b
// and 10, the panels `warpedgates compare` runs.
func HeadlineValues(fig9a, fig9b *Fig9Result, fig10 *Fig10Result) Values {
	v := Values{}
	emit := func(x float64, path ...string) { v[strings.Join(path, " ")] = x }
	emitFig9(emit, fig9a)
	emitFig9(emit, fig9b)
	emitFig10(emit, fig10)
	return v
}

// ClaimScale is the set of runs a claim must hold at.
type ClaimScale uint8

const (
	// GoldenScale is config.Small() at scale 0.2, recorded in
	// testdata/golden_figures.txt.
	GoldenScale ClaimScale = 1 << iota
	// FullScale is config.GTX480() at scale 1, the paper's machine,
	// recorded in testdata/paper_figures.txt.
	FullScale
	// BothScales is either run.
	BothScales = GoldenScale | FullScale
)

func (s ClaimScale) String() string {
	switch s {
	case GoldenScale:
		return "golden"
	case FullScale:
		return "full"
	}
	return "both"
}

// lookup returns the value under a record key path.
type lookup func(path ...string) float64

// Claim is one shape claim of the paper's evaluation, as EXPERIMENTS.md
// states it, checked against a figure record.
type Claim struct {
	Name     string     // short row name
	Figure   string     // ID of the figure the claim is about
	Sentence string     // the EXPERIMENTS.md text it checks, verbatim
	Scale    ClaimScale // the runs it must hold at
	// Check reads the record and returns what it measured and whether the
	// claim holds.
	Check func(at lookup) (measured string, ok bool)
}

// AppliesAt reports whether c must hold on runs at scale s.
func (c Claim) AppliesAt(s ClaimScale) bool { return c.Scale&s == s }

// Eval checks c against v. A row that reads a value v lacks fails.
func (c Claim) Eval(v Values) (measured string, ok bool) {
	var missing []string
	measured, ok = c.Check(func(path ...string) float64 {
		key := strings.Join(path, " ")
		x, found := v[key]
		if !found {
			missing = append(missing, key)
		}
		return x
	})
	if len(missing) > 0 {
		return "missing " + strings.Join(missing, ", "), false
	}
	return measured, ok
}

// printed checks a claim that quotes numbers: it holds when args, formatted
// as the sentence prints them, read exactly want.
func printed(want, format string, args ...any) (string, bool) {
	got := fmt.Sprintf(format, args...)
	return got, got == want
}

// ordered checks that the values at keys, read under prefix, strictly
// increase: each one below the next.
func ordered(at lookup, prefix []string, keys ...string) (string, bool) {
	var parts []string
	ok := true
	prev := 0.0
	for i, k := range keys {
		x := at(append(prefix, k)...)
		parts = append(parts, fmt.Sprintf("%s %.4f", k, x))
		ok = ok && (i == 0 || prev < x)
		prev = x
	}
	return strings.Join(parts, " < "), ok
}

// fig11Ratios returns WarpedGates over ConvPG INT savings at each value of
// a Fig. 11 panel, and whether every ratio exceeds the one before it.
func fig11Ratios(at lookup, id string, values ...string) ([]float64, bool) {
	var rs []float64
	growing := true
	for i, p := range values {
		rs = append(rs, at(id, "WarpedGates", p, "int")/at(id, "ConvPG", p, "int"))
		if i > 0 && !(rs[i] > rs[i-1]) {
			growing = false
		}
	}
	return rs, growing
}

// Claims is the paper's shape, as EXPERIMENTS.md states it, one row per
// claim. TestPaperClaims checks every row against the committed figure
// record of each scale it names; `warpedgates compare` checks the Fig. 9 and
// 10 rows on its own run and fails when one does not hold.
var Claims = []Claim{
	{
		Name:     "GATES shrinks Fig. 3's wasted region",
		Figure:   "fig3",
		Sentence: "GATES drains the wasted region into the two gateable regions",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			g, c := at("fig3", "GATES", "wasted"), at("fig3", "ConvPG", "wasted")
			return fmt.Sprintf("GATES %.4f, ConvPG %.4f", g, c), g < c
		},
	},
	{
		Name:     "Blackout empties Fig. 3's middle region",
		Figure:   "fig3",
		Sentence: "Blackout empties the middle region *exactly* (0.0%)",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			n := at("fig3", "NaiveBlackout", "negative")
			return fmt.Sprintf("NaiveBlackout %g", n), n == 0
		},
	},
	{
		Name:     "Blackout grows Fig. 3's net-savings region",
		Figure:   "fig3",
		Sentence: "multiplies the net-savings region",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			n, c := at("fig3", "NaiveBlackout", "positive"), at("fig3", "ConvPG", "positive")
			return fmt.Sprintf("NaiveBlackout %.4f = %.2fx ConvPG", n, n/c), n > c
		},
	},
	{
		Name:     "Warped Gates idles below Coordinated Blackout",
		Figure:   "fig8a",
		Sentence: "(WG below Coord ✓)",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			return ordered(at, []string{"fig8a", "geomean"}, "WarpedGates", "CoordBlackout")
		},
	},
	{
		Name:     "Fig. 8a keeps the paper's ordering",
		Figure:   "fig8a",
		Sentence: "8a and 8c reproduce the paper's orderings and rough factors",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			return ordered(at, []string{"fig8a", "geomean"}, "GATES", "WarpedGates", "CoordBlackout")
		},
	},
	{
		Name:     "Fig. 8c keeps the paper's ordering",
		Figure:   "fig8c",
		Sentence: "8a and 8c reproduce the paper's orderings and rough factors",
		Scale:    FullScale,
		Check: func(at lookup) (string, bool) {
			return ordered(at, []string{"fig8c", "geomean"}, "WarpedGates", "CoordBlackout", "GATES")
		},
	},
	{
		Name:     "Warped Gates compensates fewer cycles than ConvPG",
		Figure:   "fig8b",
		Sentence: "our Warped Gates shows *fewer* net-compensated cycles than ConvPG",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			return ordered(at, []string{"fig8b", "mean"}, "WarpedGates", "ConvPG")
		},
	},
	{
		Name:     "FP savings > INT savings",
		Figure:   "fig9b",
		Sentence: "| FP savings > INT savings | yes | yes |",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			// Report the technique with the smallest FP-over-INT margin.
			var closest string
			var fp, in float64
			ok := true
			for _, t := range GatedTechniques() {
				f, i := at("fig9b", "average", t.String()), at("fig9a", "average", t.String())
				if closest == "" || f-i < fp-in {
					closest, fp, in = t.String(), f, i
				}
				ok = ok && f > i
			}
			return fmt.Sprintf("closest %s: FP %.4f, INT %.4f", closest, fp, in), ok
		},
	},
	{
		Name:     "Blackout > ConvPG on INT and FP savings",
		Figure:   "fig9a",
		Sentence: "Blackout's step over conventional gating — the paper's core claim — reproduces",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			var parts []string
			ok := true
			for _, id := range []string{"fig9a", "fig9b"} {
				conv := at(id, "average", "ConvPG")
				low := min(at(id, "average", "NaiveBlackout"), at(id, "average", "CoordBlackout"),
					at(id, "average", "WarpedGates"))
				parts = append(parts, fmt.Sprintf("%s min %.4f vs %.4f", id, low, conv))
				ok = ok && low > conv
			}
			return strings.Join(parts, ", "), ok
		},
	},
	{
		Name:     "Warped Gates >= 1.3x ConvPG on INT savings",
		Figure:   "fig9a",
		Sentence: "Warped Gates saves at least 1.3× ConvPG's INT static energy",
		Scale:    FullScale,
		Check: func(at lookup) (string, bool) {
			r := at("fig9a", "average", "WarpedGates") / at("fig9a", "average", "ConvPG")
			return fmt.Sprintf("%.2fx", r), r >= 1.3
		},
	},
	{
		Name:     "Headline INT savings",
		Figure:   "fig9a",
		Sentence: "13.7% → 26.3% (~1.9×)",
		Scale:    FullScale,
		Check: func(at lookup) (string, bool) {
			c, w := at("fig9a", "average", "ConvPG"), at("fig9a", "average", "WarpedGates")
			return printed("13.7% → 26.3% (~1.9×)", "%.1f%% → %.1f%% (~%.1f×)", 100*c, 100*w, w/c)
		},
	},
	{
		Name:     "Headline FP savings",
		Figure:   "fig9b",
		Sentence: "30.5% → 40.2% (~1.32×)",
		Scale:    FullScale,
		Check: func(at lookup) (string, bool) {
			c, w := at("fig9b", "average", "ConvPG"), at("fig9b", "average", "WarpedGates")
			return printed("30.5% → 40.2% (~1.32×)", "%.1f%% → %.1f%% (~%.2f×)", 100*c, 100*w, w/c)
		},
	},
	{
		Name:     "GATES adds no savings over ConvPG",
		Figure:   "fig9a",
		Sentence: "our GATES adds no energy on top of ConvPG",
		Scale:    FullScale,
		Check: func(at lookup) (string, bool) {
			var parts []string
			ok := true
			for _, id := range []string{"fig9a", "fig9b"} {
				g, c := at(id, "average", "GATES"), at(id, "average", "ConvPG")
				parts = append(parts, fmt.Sprintf("%s GATES %.4f, ConvPG %.4f", id, g, c))
				ok = ok && g <= c
			}
			return strings.Join(parts, "; "), ok
		},
	},
	{
		Name:     "Coordinated Blackout edges Naive on FP",
		Figure:   "fig9b",
		Sentence: "on FP it does edge out Naive, as in the paper",
		Scale:    FullScale,
		Check: func(at lookup) (string, bool) {
			return ordered(at, []string{"fig9b", "average"}, "NaiveBlackout", "CoordBlackout")
		},
	},
	{
		Name:     "Naive Blackout is the slowest technique",
		Figure:   "fig10",
		Sentence: "Naive worst",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			n := at("fig10", "geomean", "NaiveBlackout")
			next := min(at("fig10", "geomean", "ConvPG"), at("fig10", "geomean", "GATES"),
				at("fig10", "geomean", "CoordBlackout"), at("fig10", "geomean", "WarpedGates"))
			return fmt.Sprintf("NaiveBlackout %.4f, next %.4f", n, next), n < next
		},
	},
	{
		Name:     "Coordinated Blackout recovers Naive's loss",
		Figure:   "fig10",
		Sentence: "Coordinated recovers",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			return ordered(at, []string{"fig10", "geomean"}, "NaiveBlackout", "CoordBlackout")
		},
	},
	{
		Name:     "Warped Gates fastest of the blackout techniques",
		Figure:   "fig10",
		Sentence: "Warped Gates best of the blackouts",
		Scale:    FullScale,
		Check: func(at lookup) (string, bool) {
			return ordered(at, []string{"fig10", "geomean"}, "CoordBlackout", "WarpedGates")
		},
	},
	{
		// Coordinated Blackout and Warped Gates are within each other's
		// noise band on performance (the paper separates them by ~1%).
		Name:     "Warped Gates within 0.005 of the fastest blackout",
		Figure:   "fig10",
		Sentence: "at the golden scale Warped Gates stays within 0.005 of the fastest blackout technique",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			w := at("fig10", "geomean", "WarpedGates")
			best := max(at("fig10", "geomean", "NaiveBlackout"), at("fig10", "geomean", "CoordBlackout"))
			return fmt.Sprintf("WarpedGates %.4f, best other %.4f", w, best), w >= best-0.005
		},
	},
	{
		Name:     "ConvPG's INT savings collapse with BET",
		Figure:   "fig11a",
		Sentence: "the same monotone collapse of ConvPG",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			return ordered(at, []string{"fig11a", "ConvPG"}, "19 int", "14 int", "9 int")
		},
	},
	{
		Name:     "Warped Gates' INT savings decline with BET",
		Figure:   "fig11a",
		Sentence: "against a gently declining Warped Gates",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			return ordered(at, []string{"fig11a", "WarpedGates"}, "19 int", "14 int", "9 int")
		},
	},
	{
		Name:     "Warped Gates' lead widens with BET",
		Figure:   "fig11a",
		Sentence: "with the gap widening",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			rs, growing := fig11Ratios(at, "fig11a", "9", "14", "19")
			return fmt.Sprintf("%.2fx, %.2fx, %.2fx", rs[0], rs[1], rs[2]), growing
		},
	},
	{
		Name:     "Warped Gates' lead is 1.3x at BET 9 and 6.8x at 19",
		Figure:   "fig11a",
		Sentence: "from 1.3× to 6.8×",
		Scale:    FullScale,
		Check: func(at lookup) (string, bool) {
			rs, _ := fig11Ratios(at, "fig11a", "9", "19")
			return printed("from 1.3× to 6.8×", "from %.1f× to %.1f×", rs[0], rs[1])
		},
	},
	{
		Name:     "ConvPG's INT savings at wakeup 9",
		Figure:   "fig11b",
		Sentence: "(7.4% vs the paper's 6%)",
		Scale:    FullScale,
		Check: func(at lookup) (string, bool) {
			return printed("7.4%", "%.1f%%", 100*at("fig11b", "ConvPG", "9", "int"))
		},
	},
	{
		Name:     "Warped Gates above ConvPG at every wakeup delay",
		Figure:   "fig11b",
		Sentence: "Warped Gates stays above ConvPG at every delay",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			rs, _ := fig11Ratios(at, "fig11b", "3", "6", "9")
			return fmt.Sprintf("%.2fx, %.2fx, %.2fx", rs[0], rs[1], rs[2]), min(rs[0], rs[1], rs[2]) > 1
		},
	},
	{
		Name:     "Warped Gates' lead grows with wakeup delay",
		Figure:   "fig11b",
		Sentence: "by 1.91× at delay 3, 1.96× at 6 and 2.26× at 9",
		Scale:    FullScale,
		Check: func(at lookup) (string, bool) {
			rs, growing := fig11Ratios(at, "fig11b", "3", "6", "9")
			got, ok := printed("by 1.91× at delay 3, 1.96× at 6 and 2.26× at 9",
				"by %.2f× at delay 3, %.2f× at 6 and %.2f× at 9", rs[0], rs[1], rs[2])
			return got, ok && growing
		},
	},
	{
		Name:     "Both techniques lose ~5pp of performance by wakeup 9",
		Figure:   "fig11b",
		Sentence: "on performance both techniques degrade by ~5pp here",
		Scale:    BothScales,
		Check: func(at lookup) (string, bool) {
			c := 100 * (at("fig11b", "ConvPG", "3", "perf") - at("fig11b", "ConvPG", "9", "perf"))
			w := 100 * (at("fig11b", "WarpedGates", "3", "perf") - at("fig11b", "WarpedGates", "9", "perf"))
			return printed("ConvPG ~5pp, WarpedGates ~5pp", "ConvPG ~%.0fpp, WarpedGates ~%.0fpp", c, w)
		},
	},
}
