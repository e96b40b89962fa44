package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows of strings and renders them with aligned columns.
// The figure-regeneration harness uses it to print the same rows/series the
// paper's figures report.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row. Rows shorter than the header are padded with empty
// cells; longer rows extend the column count.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row where each cell is produced by fmt.Sprint on the
// corresponding value; float64 values are formatted with 4 significant digits.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		case float32:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table as plain text with aligned columns.
func (t *Table) String() string {
	ncol := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	pad := func(row []string) {
		for i := 0; i < ncol; i++ {
			var cell string
			if i < len(row) {
				cell = row[i]
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	pad(t.header)
	for _, r := range t.rows {
		pad(r)
	}

	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(row []string) {
		for i := 0; i < ncol; i++ {
			var cell string
			if i < len(row) {
				cell = row[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		for i := 0; i < ncol; i++ {
			b.WriteString(strings.Repeat("-", widths[i]) + "  ")
		}
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// WriteCSV emits the table (header, then rows) as RFC-4180 CSV, for plotting
// the regenerated figures with external tools. The title is not included.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.header) > 0 {
		if err := cw.Write(t.header); err != nil {
			return fmt.Errorf("stats: writing CSV header: %w", err)
		}
	}
	for _, r := range t.rows {
		if err := cw.Write(r); err != nil {
			return fmt.Errorf("stats: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
