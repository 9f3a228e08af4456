package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// referenceRender is the pre-optimization Table.Fprint, kept verbatim as
// the spec: pad each cell with strings.Repeat, join with two spaces, trim
// trailing blanks. The zero-Repeat renderer must be byte-identical to it
// on every table shape.
func referenceRender(t *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	pad := func(s string, w int) string {
		if len(s) >= w {
			return s
		}
		return s + strings.Repeat(" ", w-len(s))
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(&b, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func TestFprintMatchesReferenceRenderer(t *testing.T) {
	t.Parallel()
	cases := []*Table{
		{ID: "T0", Title: "empty"},
		{ID: "T1", Title: "header only", Header: []string{"a", "bb", "ccc"}},
		{
			ID:     "T2",
			Title:  "plain",
			Header: []string{"col", "x"},
			Rows:   [][]string{{"1", "2"}, {"wide-cell", "3"}},
			Notes:  []string{"one", "two"},
		},
		{
			ID:     "T3",
			Title:  "ragged",
			Header: []string{"a", "b"},
			// Rows wider than the header, empty trailing cells, and cells
			// that force trailing-blank trimming.
			Rows: [][]string{
				{"1", "", "extra", "more"},
				{"", ""},
				{"x"},
				{"longer-than-header", ""},
			},
		},
		{
			ID:    "T4",
			Title: "no header, rows anyway",
			Rows:  [][]string{{"a", "b"}, {"c"}},
			Notes: []string{""},
		},
	}
	// Fuzz a few random shapes on top of the crafted corners.
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 50; k++ {
		nCols := rng.Intn(5)
		header := make([]string, nCols)
		for i := range header {
			header[i] = strings.Repeat("h", rng.Intn(8))
		}
		rows := make([][]string, rng.Intn(6))
		for r := range rows {
			row := make([]string, rng.Intn(7))
			for i := range row {
				row[i] = strings.Repeat("c", rng.Intn(10))
			}
			rows[r] = row
		}
		cases = append(cases, &Table{ID: "F", Title: "fuzz", Header: header, Rows: rows})
	}

	for i, tab := range cases {
		var got bytes.Buffer
		tab.Fprint(&got)
		if want := referenceRender(tab); got.String() != want {
			t.Errorf("case %d (%s: %s): render diverged from reference\ngot:\n%q\nwant:\n%q",
				i, tab.ID, tab.Title, got.String(), want)
		}
	}
}

func BenchmarkTableFprint(b *testing.B) {
	rows := make([][]string, 64)
	for r := range rows {
		rows[r] = []string{fmt.Sprintf("%d", r), "12.34", "56.7%", "value"}
	}
	tab := &Table{
		ID:     "B1",
		Title:  "bench",
		Header: []string{"idx", "lat", "pct", "name"},
		Rows:   rows,
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		tab.Fprint(&buf)
	}
}
