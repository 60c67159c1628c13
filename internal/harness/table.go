// Package harness runs the reproduction experiments of DESIGN.md
// (E1–E12): it sweeps workloads and machine sizes, runs the solvers on
// the simulated machine, and renders the measured costs next to the
// paper's Table 2 formulas. cmd/apspbench and the benchmark suite are
// thin wrappers around this package.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string // experiment id, e.g. "E2"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row, formatting each cell with %v (floats get %.3g).
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-form footnote.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	dashes := make([]string, len(t.Columns))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", widths[i])
	}
	line(dashes)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// jsonTable is the machine-readable form of a Table: rows become
// column-keyed objects so downstream tooling (plotting scripts) can
// index cells by name.
type jsonTable struct {
	ID    string              `json:"id"`
	Title string              `json:"title"`
	Cols  []string            `json:"columns"`
	Rows  []map[string]string `json:"rows"`
	Notes []string            `json:"notes,omitempty"`
}

// WriteJSON renders tables as a JSON array, each row an object keyed
// by column name. Extra cells beyond the declared columns are dropped;
// missing cells are omitted from the row object.
func WriteJSON(w io.Writer, tables []*Table) error {
	out := make([]jsonTable, 0, len(tables))
	for _, t := range tables {
		jt := jsonTable{ID: t.ID, Title: t.Title, Cols: t.Columns, Notes: t.Notes,
			Rows: make([]map[string]string, 0, len(t.Rows))}
		for _, row := range t.Rows {
			obj := make(map[string]string, len(t.Columns))
			for i, c := range t.Columns {
				if i < len(row) {
					obj[c] = row[i]
				}
			}
			jt.Rows = append(jt.Rows, obj)
		}
		out = append(out, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteCSV renders the table as CSV (header + rows, no notes) for
// plotting the figure-style series with external tools.
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}
