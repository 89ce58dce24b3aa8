package report

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders them as aligned text columns, the
// output format of every regenerated table and figure in this repository.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Row appends a row; values are formatted with %v, floats with %.4g.
func (t *Table) Row(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(t.headers))
		for i := range t.headers {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Triple formats an avg/90th/peak statistic the way Table IV prints cells.
func Triple(avg, p90, peak float64) string {
	return fmt.Sprintf("%.4g/%.4g/%.4g", avg, p90, peak)
}

// SameOrder reports whether two slices of values sort their keys in the same
// order — the "who wins" shape check applied to regenerated tables.
func SameOrder(measured, paper []float64) bool {
	if len(measured) != len(paper) {
		return false
	}
	for i := 0; i < len(measured); i++ {
		for j := i + 1; j < len(measured); j++ {
			m := measured[i] - measured[j]
			p := paper[i] - paper[j]
			if m*p < 0 {
				return false
			}
		}
	}
	return true
}
