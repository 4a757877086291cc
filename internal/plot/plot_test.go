package plot

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"abftckpt/internal/sweep"
)

func sampleHeatmap() *Heatmap {
	z := sweep.NewMatrix(2, 3)
	z.Set(0, 0, 0)
	z.Set(0, 1, 0.5)
	z.Set(0, 2, 1)
	z.Set(1, 0, 0.25)
	z.Set(1, 1, 0.75)
	z.Set(1, 2, 1)
	return &Heatmap{
		Title: "test", XLabel: "mtbf", YLabel: "alpha",
		Xs: []float64{60, 120, 240}, Ys: []float64{0, 1}, Z: z,
	}
}

func TestHeatmapCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleHeatmap().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[1] != "alpha\\mtbf,60,120,240" {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "0,0,0.5,1") {
		t.Errorf("row 0 = %q", lines[2])
	}
}

func TestHeatmapASCII(t *testing.T) {
	s := sampleHeatmap().RenderASCII(0, 1)
	if !strings.Contains(s, "test") {
		t.Error("title missing")
	}
	// Low Y renders at the bottom: row for y=1 comes first.
	lines := strings.Split(s, "\n")
	if !strings.HasPrefix(strings.TrimSpace(lines[1]), "1.00") {
		t.Errorf("top row should be y=1: %q", lines[1])
	}
	// Value 0 maps to ' ' and 1 maps to '@'.
	if !strings.Contains(s, "@") {
		t.Error("max value should render as @")
	}
}

func TestHeatmapASCIIAutoScaleAndNaN(t *testing.T) {
	h := sampleHeatmap()
	h.Z.Set(0, 0, math.NaN())
	s := h.RenderASCII(0, 0)
	if !strings.Contains(s, "?") {
		t.Error("NaN should render as ?")
	}
	// Constant matrix should not divide by zero.
	z := sweep.NewMatrix(1, 1)
	flat := &Heatmap{Title: "flat", Xs: []float64{1}, Ys: []float64{1}, Z: z}
	if out := flat.RenderASCII(0, 0); out == "" {
		t.Error("flat heatmap render empty")
	}
}

func TestHeatmapGnuplot(t *testing.T) {
	s := sampleHeatmap().GnuplotScript("a.csv", "a.png")
	for _, want := range []string{"pm3d", "a.csv", "a.png", "set xlabel \"mtbf\""} {
		if !strings.Contains(s, want) {
			t.Errorf("gnuplot script missing %q", want)
		}
	}
}

func sampleChart() *LineChart {
	return &LineChart{
		Title: "waste", XLabel: "nodes", YLabel: "waste", LogX: true,
		Xs: []float64{1000, 10000, 100000, 1000000},
		Series: []Series{
			{Name: "PeriodicCkpt", Values: []float64{0.01, 0.04, 0.13, 0.45}},
			{Name: "ABFT PeriodicCkpt", Values: []float64{0.03, 0.03, 0.06, 0.21}},
		},
	}
}

func TestLineChartCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleChart().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[1] != "nodes,PeriodicCkpt,ABFT PeriodicCkpt" {
		t.Errorf("header = %q", lines[1])
	}
	if len(lines) != 6 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[2], "1000,0.01,0.03") {
		t.Errorf("row = %q", lines[2])
	}
}

func TestLineChartCSVCommaEscaping(t *testing.T) {
	c := sampleChart()
	c.Series[0].Name = "a,b"
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Split(buf.String(), "\n")[1], "a,b") {
		t.Error("comma in series name not escaped")
	}
}

func TestLineChartASCII(t *testing.T) {
	s := sampleChart().RenderASCII(40, 10)
	if !strings.Contains(s, "o = PeriodicCkpt") {
		t.Error("legend missing")
	}
	if !strings.Contains(s, "(log)") {
		t.Error("log annotation missing")
	}
	if !strings.Contains(s, "o") || !strings.Contains(s, "+") {
		t.Error("markers missing")
	}
}

func TestLineChartASCIIDegenerate(t *testing.T) {
	c := &LineChart{
		Title: "flat", XLabel: "x", Xs: []float64{1, 2},
		Series: []Series{{Name: "s", Values: []float64{5, 5}}},
	}
	if out := c.RenderASCII(1, 1); out == "" {
		t.Error("degenerate chart render empty")
	}
	nan := &LineChart{
		Title: "nan", XLabel: "x", Xs: []float64{1, 2},
		Series: []Series{{Name: "s", Values: []float64{math.NaN(), math.Inf(1)}}},
	}
	if out := nan.RenderASCII(20, 5); out == "" {
		t.Error("all-NaN chart render empty")
	}
}

func TestLineChartGnuplot(t *testing.T) {
	s := sampleChart().GnuplotScript("w.csv", "w.png")
	for _, want := range []string{"logscale x", "using 1:2", "using 1:3", "w.png"} {
		if !strings.Contains(s, want) {
			t.Errorf("gnuplot script missing %q", want)
		}
	}
}

// fmtHeatmapCSV and fmtLineChartCSV are the CSV writers as fmt.Fprintf
// per value: the oracles WriteCSV must match byte for byte.
func fmtHeatmapCSV(h *Heatmap) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", h.Title)
	fmt.Fprintf(&sb, "%s\\%s", h.YLabel, h.XLabel)
	for _, x := range h.Xs {
		fmt.Fprintf(&sb, ",%g", x)
	}
	fmt.Fprintln(&sb)
	for i, y := range h.Ys {
		fmt.Fprintf(&sb, "%g", y)
		for j := range h.Xs {
			fmt.Fprintf(&sb, ",%.6g", h.Z.At(i, j))
		}
		fmt.Fprintln(&sb)
	}
	return sb.String()
}

func fmtLineChartCSV(c *LineChart) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", c.Title)
	fmt.Fprintf(&sb, "%s", c.XLabel)
	for _, s := range c.Series {
		fmt.Fprintf(&sb, ",%s", strings.ReplaceAll(s.Name, ",", ";"))
	}
	fmt.Fprintln(&sb)
	for i, x := range c.Xs {
		fmt.Fprintf(&sb, "%g", x)
		for _, s := range c.Series {
			if i < len(s.Values) {
				fmt.Fprintf(&sb, ",%.6g", s.Values[i])
			} else {
				fmt.Fprint(&sb, ",")
			}
		}
		fmt.Fprintln(&sb)
	}
	return sb.String()
}

// TestCSVMatchesFmt holds both CSV writers to the fmt oracles over random
// bit patterns, short decimals, both zeros, subnormals, NaN and ±Inf, and
// a series shorter than the X axis.
func TestCSVMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e21, 1e-5, 123456.5, 999999.5, 0.1}
	value := func(i int) float64 {
		switch i % 4 {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		case 2:
			return float64(rng.Intn(2_000_000)-1_000_000) / 1000
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
		}
	}
	values := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = value(rng.Intn(4))
		}
		return out
	}
	for round := 0; round < 50; round++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		z := sweep.NewMatrix(rows, cols)
		copy(z.Data, values(rows*cols))
		h := &Heatmap{Title: "t,é", XLabel: "x", YLabel: "y", Xs: values(cols), Ys: values(rows), Z: z}
		var buf bytes.Buffer
		if err := h.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if want := fmtHeatmapCSV(h); buf.String() != want {
			t.Fatalf("heatmap CSV\n got %q\nwant %q", buf.String(), want)
		}
		c := &LineChart{Title: "c", XLabel: "nodes", Xs: values(cols),
			Series: []Series{{Name: "a,b", Values: values(cols)}, {Name: "short", Values: values(rng.Intn(cols + 1))}}}
		buf.Reset()
		if err := c.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if want := fmtLineChartCSV(c); buf.String() != want {
			t.Fatalf("line chart CSV\n got %q\nwant %q", buf.String(), want)
		}
	}
}
