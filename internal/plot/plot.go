// Package plot renders simple SVG line charts with the standard library
// only. It exists so the reproduction can emit figure files directly
// (`muzha plot`) instead of requiring an external plotting stack.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line.
type Series struct {
	Name string
	X, Y []float64
}

// Chart is a renderable line chart.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Width and Height in pixels; defaults 720x420.
	Width, Height int
}

// palette holds line colours; chosen for contrast on white.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd",
	"#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
}

const (
	marginLeft   = 70.0
	marginRight  = 20.0
	marginTop    = 40.0
	marginBottom = 50.0
)

// SVG renders the chart. It returns an error for empty or malformed
// series.
func (c *Chart) SVG() (string, error) {
	if len(c.Series) == 0 {
		return "", fmt.Errorf("plot: chart %q has no series", c.Title)
	}
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 720
	}
	if h <= 0 {
		h = 420
	}

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return "", fmt.Errorf("plot: series %q has %d x values but %d y values", s.Name, len(s.X), len(s.Y))
		}
		if len(s.X) == 0 {
			return "", fmt.Errorf("plot: series %q is empty", s.Name)
		}
		for i := range s.X {
			xmin, xmax = math.Min(xmin, s.X[i]), math.Max(xmax, s.X[i])
			ymin, ymax = math.Min(ymin, s.Y[i]), math.Max(ymax, s.Y[i])
		}
	}
	// Zero-baseline for magnitude plots; pad degenerate ranges.
	if ymin > 0 {
		ymin = 0
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	plotW := float64(w) - marginLeft - marginRight
	plotH := float64(h) - marginTop - marginBottom
	px := func(x float64) float64 { return marginLeft + (x-xmin)/(xmax-xmin)*plotW }
	py := func(y float64) float64 { return marginTop + plotH - (y-ymin)/(ymax-ymin)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`, w, h)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>`)

	// Axes.
	fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`,
		marginLeft, marginTop, marginLeft, marginTop+plotH)
	fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`,
		marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH)

	// Ticks and grid.
	for _, t := range ticks(xmin, xmax, 6) {
		x := px(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`,
			x, marginTop, x, marginTop+plotH)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle">%s</text>`,
			x, marginTop+plotH+16, formatTick(t))
	}
	for _, t := range ticks(ymin, ymax, 5) {
		y := py(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`,
			marginLeft, y, marginLeft+plotW, y)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="end">%s</text>`,
			marginLeft-6, y+4, formatTick(t))
	}

	// Series.
	for i, s := range c.Series {
		colour := palette[i%len(palette)]
		var pts strings.Builder
		for j := range s.X {
			if j > 0 {
				pts.WriteByte(' ')
			}
			fmt.Fprintf(&pts, "%.1f,%.1f", px(s.X[j]), py(s.Y[j]))
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="1.8" points="%s"/>`,
			colour, pts.String())
	}

	// Legend.
	lx, ly := marginLeft+plotW-140, marginTop+8.0
	for i, s := range c.Series {
		colour := palette[i%len(palette)]
		y := ly + float64(i)*16
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2"/>`,
			lx, y, lx+18, y, colour)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f">%s</text>`, lx+24, y+4, escape(s.Name))
	}

	// Labels.
	fmt.Fprintf(&b, `<text x="%.1f" y="20" text-anchor="middle" font-size="14">%s</text>`,
		marginLeft+plotW/2, escape(c.Title))
	fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle">%s</text>`,
		marginLeft+plotW/2, float64(h)-8, escape(c.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%.1f" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`,
		marginTop+plotH/2, marginTop+plotH/2, escape(c.YLabel))

	b.WriteString(`</svg>`)
	return b.String(), nil
}

// ticks returns ~n human-friendly tick positions covering [lo, hi].
func ticks(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	span := hi - lo
	step := math.Pow(10, math.Floor(math.Log10(span/float64(n))))
	for _, mult := range []float64{1, 2, 5, 10} {
		if span/(step*mult) <= float64(n) {
			step *= mult
			break
		}
	}
	var out []float64
	for t := math.Ceil(lo/step) * step; t <= hi+step/1e6; t += step {
		out = append(out, t)
	}
	return out
}

// formatTick renders a tick label compactly (SI suffix for big values).
func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return trimZero(v/1e6) + "M"
	case av >= 1e3:
		return trimZero(v/1e3) + "k"
	default:
		return trimZero(v)
	}
}

func trimZero(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
