// Package plot renders simple deterministic ASCII charts so cmd/reproduce
// can show the paper's figures — latency/throughput curves and CDFs — as
// plots rather than only tables, with no dependencies.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// XY is one data point.
type XY struct {
	X, Y float64
}

// Series is one named curve.
type Series struct {
	Name   string
	Points []XY
}

// Plot is a renderable chart.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// markers cycles per series.
var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Render draws the plot into a width×height character grid (plus axes and
// legend). Minimum canvas is 16×8.
func (p *Plot) Render(width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 8 {
		height = 8
	}

	minX, maxX, minY, maxY, any := p.bounds()
	if !any {
		return fmt.Sprintf("%s\n(no data)\n", p.Title)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range p.Series {
		m := markers[si%len(markers)]
		for _, pt := range s.Points {
			col := int(math.Round((pt.X - minX) / (maxX - minX) * float64(width-1)))
			row := int(math.Round((pt.Y - minY) / (maxY - minY) * float64(height-1)))
			r := height - 1 - row
			if r >= 0 && r < height && col >= 0 && col < width {
				grid[r][col] = m
			}
		}
	}

	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	yTop := fmt.Sprintf("%.4g", maxY)
	yBot := fmt.Sprintf("%.4g", minY)
	pad := len(yTop)
	if len(yBot) > pad {
		pad = len(yBot)
	}
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", pad)
		switch r {
		case 0:
			label = leftPad(yTop, pad)
		case height - 1:
			label = leftPad(yBot, pad)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", pad), strings.Repeat("-", width))
	xLeft := fmt.Sprintf("%.4g", minX)
	xRight := fmt.Sprintf("%.4g", maxX)
	gap := width - len(xLeft) - len(xRight)
	if gap < 1 {
		gap = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", pad), xLeft, strings.Repeat(" ", gap), xRight)
	if p.XLabel != "" || p.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s, y: %s\n", strings.Repeat(" ", pad), p.XLabel, p.YLabel)
	}
	for si, s := range p.Series {
		fmt.Fprintf(&b, "%s  %c %s\n", strings.Repeat(" ", pad), markers[si%len(markers)], s.Name)
	}
	return b.String()
}

func (p *Plot) bounds() (minX, maxX, minY, maxY float64, any bool) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, s := range p.Series {
		for _, pt := range s.Points {
			if math.IsNaN(pt.X) || math.IsNaN(pt.Y) {
				continue
			}
			any = true
			minX = math.Min(minX, pt.X)
			maxX = math.Max(maxX, pt.X)
			minY = math.Min(minY, pt.Y)
			maxY = math.Max(maxY, pt.Y)
		}
	}
	return minX, maxX, minY, maxY, any
}

func leftPad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}
