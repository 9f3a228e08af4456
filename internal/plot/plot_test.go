package plot

import (
	"strings"
	"testing"
)

func TestRenderBasics(t *testing.T) {
	p := &Plot{
		Title:  "test plot",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "up", Points: []XY{{0, 0}, {1, 1}, {2, 2}, {3, 3}}},
			{Name: "down", Points: []XY{{0, 3}, {1, 2}, {2, 1}, {3, 0}}},
		},
	}
	out := p.Render(40, 10)
	for _, want := range []string{"test plot", "* up", "o down", "x: x, y: y", "0", "3"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 13 {
		t.Errorf("only %d lines rendered", len(lines))
	}
}

func TestRenderPlacesExtremes(t *testing.T) {
	p := &Plot{Series: []Series{{Name: "s", Points: []XY{{0, 0}, {10, 100}}}}}
	out := p.Render(20, 8)
	rows := strings.Split(out, "\n")
	// Top row must contain the max point marker, bottom data row the min.
	if !strings.Contains(rows[0], "*") {
		t.Errorf("max point not on top row: %q", rows[0])
	}
	if !strings.Contains(rows[7], "*") {
		t.Errorf("min point not on bottom row: %q", rows[7])
	}
}

func TestRenderEmptyAndDegenerate(t *testing.T) {
	p := &Plot{Title: "empty"}
	if out := p.Render(20, 8); !strings.Contains(out, "(no data)") {
		t.Errorf("empty plot: %q", out)
	}
	// A single point (degenerate ranges) must not panic or divide by zero.
	one := &Plot{Series: []Series{{Name: "pt", Points: []XY{{5, 7}}}}}
	if out := one.Render(20, 8); !strings.Contains(out, "*") {
		t.Errorf("single point not rendered:\n%s", out)
	}
}

func TestRenderClampsTinyCanvas(t *testing.T) {
	p := &Plot{Series: []Series{{Name: "s", Points: []XY{{0, 0}, {1, 1}}}}}
	out := p.Render(1, 1) // clamped to 16×8
	if len(strings.Split(out, "\n")) < 8 {
		t.Error("tiny canvas not clamped")
	}
}

func TestManySeriesMarkersCycle(t *testing.T) {
	p := &Plot{}
	for i := 0; i < 8; i++ {
		p.Series = append(p.Series, Series{Name: "s", Points: []XY{{float64(i), float64(i)}}})
	}
	out := p.Render(30, 8)
	if !strings.Contains(out, "#") || !strings.Contains(out, "@") {
		t.Error("marker cycling broken")
	}
}
