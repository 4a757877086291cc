package scenario

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"abftckpt/internal/plot"
)

// Artifact is one finished output of a campaign: exactly one of Heatmap,
// Chart or Table is set.
type Artifact struct {
	// Name is the output base name (files derive from it: Name.csv, ...).
	Name string
	// Heatmap, Chart and Table hold the result, by artifact shape.
	Heatmap *plot.Heatmap
	Chart   *plot.LineChart
	Table   *plot.Table
	// RenderLo and RenderHi bound the ASCII color scale of heatmaps.
	RenderLo, RenderHi float64
}

// Kind reports the artifact shape: "heatmap", "chart" or "table".
func (a *Artifact) Kind() string {
	switch {
	case a.Heatmap != nil:
		return "heatmap"
	case a.Chart != nil:
		return "chart"
	default:
		return "table"
	}
}

// WriteCSV emits the artifact's CSV form.
func (a *Artifact) WriteCSV(w io.Writer) error {
	switch {
	case a.Heatmap != nil:
		return a.Heatmap.WriteCSV(w)
	case a.Chart != nil:
		return a.Chart.WriteCSV(w)
	case a.Table != nil:
		return a.Table.WriteCSV(w)
	default:
		return fmt.Errorf("scenario: artifact %q is empty", a.Name)
	}
}

// RenderASCII returns the terminal rendering of the artifact.
func (a *Artifact) RenderASCII() string {
	switch {
	case a.Heatmap != nil:
		return a.Heatmap.RenderASCII(a.RenderLo, a.RenderHi)
	case a.Chart != nil:
		return a.Chart.RenderASCII(72, 20)
	case a.Table != nil:
		return a.Table.Render()
	default:
		return ""
	}
}

// GnuplotScript returns a gnuplot script plotting the artifact's CSV file,
// and whether the artifact shape has one (tables do not).
func (a *Artifact) GnuplotScript(csvPath, outPath string) (string, bool) {
	switch {
	case a.Heatmap != nil:
		return a.Heatmap.GnuplotScript(csvPath, outPath), true
	case a.Chart != nil:
		return a.Chart.GnuplotScript(csvPath, outPath), true
	default:
		return "", false
	}
}

// WriteFiles emits the artifact into dir — Name.csv, Name.txt and (for
// heatmaps and charts) Name.gp — and returns the file names written.
// cmd/ftcampaign emits artifacts through this.
func (a *Artifact) WriteFiles(dir string) ([]string, error) {
	f, err := os.Create(filepath.Join(dir, a.Name+".csv"))
	if err != nil {
		return nil, err
	}
	if err := a.WriteCSV(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, a.Name+".txt"), []byte(a.RenderASCII()), 0o644); err != nil {
		return nil, err
	}
	files := []string{a.Name + ".csv", a.Name + ".txt"}
	if gp, ok := a.GnuplotScript(a.Name+".csv", a.Name+".png"); ok {
		if err := os.WriteFile(filepath.Join(dir, a.Name+".gp"), []byte(gp), 0o644); err != nil {
			return nil, err
		}
		files = append(files, a.Name+".gp")
	}
	return files, nil
}
