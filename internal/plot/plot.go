// Package plot exports experiment results as CSV tables, ASCII renderings
// (heatmaps and line charts for terminal inspection) and gnuplot scripts, so
// every figure of the paper can be regenerated without external
// dependencies.
package plot

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"abftckpt/internal/sweep"
)

// Heatmap couples a result matrix with its axes and labels, matching the
// paper's Figure 7 layout: X is the system MTBF, Y the library-time ratio.
type Heatmap struct {
	Title  string
	XLabel string
	YLabel string
	Xs, Ys []float64
	Z      *sweep.Matrix // Rows = len(Ys), Cols = len(Xs)
}

// WriteCSV emits the heatmap as a matrix CSV: first row "ylabel\xlabel, x0,
// x1, ...", then one row per y value. Axis values are written as %g writes
// them, cells as %.6g, each appended by strconv into one buffer.
func (h *Heatmap) WriteCSV(w io.Writer) error {
	// Sized for about 12 bytes a value, so most tables take one allocation.
	b := make([]byte, 0, 64+len(h.Title)+len(h.XLabel)+len(h.YLabel)+12*(len(h.Ys)+1)*(len(h.Xs)+1))
	b = append(append(append(b, "# "...), h.Title...), '\n')
	b = append(append(append(b, h.YLabel...), '\\'), h.XLabel...)
	for _, x := range h.Xs {
		b = strconv.AppendFloat(append(b, ','), x, 'g', -1, 64)
	}
	b = append(b, '\n')
	for i, y := range h.Ys {
		b = strconv.AppendFloat(b, y, 'g', -1, 64)
		for j := range h.Xs {
			b = strconv.AppendFloat(append(b, ','), h.Z.At(i, j), 'g', 6, 64)
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// asciiRamp maps [0,1] to increasing ink density.
const asciiRamp = " .:-=+*#%@"

// RenderASCII draws the heatmap with one character per cell, low Y at the
// bottom (as in the paper's figures). lo and hi fix the color scale; pass
// equal values to auto-scale.
func (h *Heatmap) RenderASCII(lo, hi float64) string {
	if lo == hi {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, v := range h.Z.Data {
			if math.IsNaN(v) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if math.IsInf(lo, 1) { // all NaN
			lo, hi = 0, 1
		}
		if lo == hi {
			hi = lo + 1
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  [%c=%.2g .. %c=%.2g]\n", h.Title, asciiRamp[0], lo, asciiRamp[len(asciiRamp)-1], hi)
	for i := len(h.Ys) - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "%6.2f |", h.Ys[i])
		for j := range h.Xs {
			sb.WriteByte(rampChar(h.Z.At(i, j), lo, hi))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "       +%s\n", strings.Repeat("-", len(h.Xs)))
	fmt.Fprintf(&sb, "        %s: %g .. %g\n", h.XLabel, h.Xs[0], h.Xs[len(h.Xs)-1])
	return sb.String()
}

func rampChar(v, lo, hi float64) byte {
	if math.IsNaN(v) {
		return '?'
	}
	t := (v - lo) / (hi - lo)
	if math.IsNaN(t) || t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	idx := int(t * float64(len(asciiRamp)-1))
	return asciiRamp[idx]
}

// GnuplotScript returns a gnuplot script rendering the heatmap from its CSV
// file (pm3d map, as used for the paper's Figure 7).
func (h *Heatmap) GnuplotScript(csvPath, outPath string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "set title %q\n", h.Title)
	fmt.Fprintf(&sb, "set xlabel %q\nset ylabel %q\n", h.XLabel, h.YLabel)
	sb.WriteString("set datafile separator ','\nset view map\nset pm3d interpolate 0,0\n")
	fmt.Fprintf(&sb, "set terminal pngcairo size 800,600\nset output %q\n", outPath)
	fmt.Fprintf(&sb, "splot %q matrix nonuniform with pm3d notitle\n", csvPath)
	return sb.String()
}

// Series is one named line of a line chart.
type Series struct {
	Name   string
	Values []float64
}

// LineChart is a multi-series chart over a shared X axis, matching the
// paper's Figures 8-10 layout (waste and fault counts versus node count).
type LineChart struct {
	Title  string
	XLabel string
	YLabel string
	Xs     []float64
	Series []Series
	// LogX annotates that X is logarithmic (node counts).
	LogX bool
}

// WriteCSV emits "x, series1, series2, ..." rows, X values as %g writes
// them and series values as %.6g, each appended by strconv into one
// buffer. A series shorter than Xs leaves its later cells empty.
func (c *LineChart) WriteCSV(w io.Writer) error {
	// Sized as in Heatmap.WriteCSV.
	b := make([]byte, 0, 64+len(c.Title)+len(c.XLabel)+12*(len(c.Xs)+1)*(len(c.Series)+1))
	b = append(append(append(b, "# "...), c.Title...), '\n')
	b = append(b, c.XLabel...)
	for _, s := range c.Series {
		b = append(append(b, ','), strings.ReplaceAll(s.Name, ",", ";")...)
	}
	b = append(b, '\n')
	for i, x := range c.Xs {
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
		for _, s := range c.Series {
			b = append(b, ',')
			if i < len(s.Values) {
				b = strconv.AppendFloat(b, s.Values[i], 'g', 6, 64)
			}
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// seriesMarkers distinguish lines in ASCII output.
const seriesMarkers = "o+x*@#%&"

// RenderASCII draws the chart in a width x height character canvas.
func (c *LineChart) RenderASCII(width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 1
	}
	if lo == hi {
		hi = lo + 1
	}
	canvas := make([][]byte, height)
	for i := range canvas {
		canvas[i] = []byte(strings.Repeat(" ", width))
	}
	xPos := func(i int) int {
		if len(c.Xs) == 1 {
			return 0
		}
		var t float64
		if c.LogX && c.Xs[0] > 0 {
			t = (math.Log(c.Xs[i]) - math.Log(c.Xs[0])) / (math.Log(c.Xs[len(c.Xs)-1]) - math.Log(c.Xs[0]))
		} else {
			t = (c.Xs[i] - c.Xs[0]) / (c.Xs[len(c.Xs)-1] - c.Xs[0])
		}
		col := int(t * float64(width-1))
		if col < 0 {
			col = 0
		}
		if col >= width {
			col = width - 1
		}
		return col
	}
	for si, s := range c.Series {
		marker := seriesMarkers[si%len(seriesMarkers)]
		for i, v := range s.Values {
			if i >= len(c.Xs) || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			row := int((v - lo) / (hi - lo) * float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			canvas[height-1-row][xPos(i)] = marker
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", c.Title)
	for i, line := range canvas {
		yVal := hi - (hi-lo)*float64(i)/float64(height-1)
		fmt.Fprintf(&sb, "%10.3g |%s\n", yVal, string(line))
	}
	fmt.Fprintf(&sb, "%10s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&sb, "%10s  %s: %g .. %g", "", c.XLabel, c.Xs[0], c.Xs[len(c.Xs)-1])
	if c.LogX {
		sb.WriteString(" (log)")
	}
	sb.WriteByte('\n')
	for si, s := range c.Series {
		fmt.Fprintf(&sb, "%10s  %c = %s\n", "", seriesMarkers[si%len(seriesMarkers)], s.Name)
	}
	return sb.String()
}

// GnuplotScript returns a gnuplot script for the chart's CSV file.
func (c *LineChart) GnuplotScript(csvPath, outPath string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "set title %q\n", c.Title)
	fmt.Fprintf(&sb, "set xlabel %q\nset ylabel %q\n", c.XLabel, c.YLabel)
	sb.WriteString("set datafile separator ','\nset key outside\n")
	if c.LogX {
		sb.WriteString("set logscale x\n")
	}
	fmt.Fprintf(&sb, "set terminal pngcairo size 800,600\nset output %q\n", outPath)
	sb.WriteString("plot ")
	for i, s := range c.Series {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%q using 1:%d with linespoints title %q", csvPath, i+2, s.Name)
	}
	sb.WriteByte('\n')
	return sb.String()
}
