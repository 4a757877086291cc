package figures

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"abftckpt/internal/model"
	"abftckpt/internal/scenario"
)

// update rewrites the golden CSV files instead of comparing against them:
//
//	go test ./internal/figures -run TestGolden -update
//
// The committed goldens were generated by the pre-scenario-engine figure
// code; they pin the refactor to byte-identical CSV output.
var update = flag.Bool("update", false, "rewrite golden files")

// csvArtifact is anything cmd/figures and cmd/ftcampaign write as CSV.
type csvArtifact interface {
	WriteCSV(w io.Writer) error
}

// goldenDiffConfig is a reduced Figure 7 grid so the simulation-backed
// goldens stay fast enough for every test run.
func goldenDiffConfig(proto model.Protocol) Fig7Config {
	return Fig7Config{
		Protocol:    proto,
		MTBFMinutes: []float64{60, 120, 240},
		Alphas:      []float64{0, 0.5, 1},
		Reps:        10,
		Seed:        1,
	}
}

// modelArtifacts are the analytic (fast, deterministic) figures and tables.
func modelArtifacts(t *testing.T) map[string]csvArtifact {
	arts := map[string]csvArtifact{}
	letters := map[model.Protocol]string{
		model.PurePeriodicCkpt: "fig7a_pure_model",
		model.BiPeriodicCkpt:   "fig7c_bi_model",
		model.AbftPeriodicCkpt: "fig7e_abft_model",
	}
	for _, proto := range model.Protocols {
		arts[letters[proto]] = runSpec(t, Fig7Spec("fig7_model", Fig7Config{Protocol: proto}, scenario.OutputModel))[0].Heatmap
	}
	nodes := []float64{1_000, 10_000, 100_000, 1_000_000}
	a8 := runSpec(t, Fig8Spec(nodes))
	arts["fig8_waste"], arts["fig8_faults"] = a8[0].Chart, a8[1].Chart
	a9 := runSpec(t, Fig9Spec(nodes))
	arts["fig9_waste"], arts["fig9_faults"] = a9[0].Chart, a9[1].Chart
	a10 := runSpec(t, Fig10Spec(nodes))
	arts["fig10_waste"], arts["fig10_faults"] = a10[0].Chart, a10[1].Chart
	arts["table_fig10_parity"] = runSpec(t, Fig10ParitySpec())[0].Table
	arts["table_periods"] = runSpec(t, PeriodsSpec())[0].Table
	arts["table_ablation_epochs"] = runSpec(t, AblationEpochsSpec(nodes))[0].Table
	arts["table_ablation_safeguard"] = runSpec(t, AblationSafeguardSpec(nodes))[0].Table
	return arts
}

// simArtifacts exercise the simulator-backed paths at reduced repetitions.
func simArtifacts(t *testing.T) map[string]csvArtifact {
	arts := map[string]csvArtifact{
		"fig7b_pure_diff_small": runSpec(t, Fig7Spec("fig7_diff", goldenDiffConfig(model.PurePeriodicCkpt), scenario.OutputDiff))[0].Heatmap,
		"fig7d_bi_diff_small":   runSpec(t, Fig7Spec("fig7_diff", goldenDiffConfig(model.BiPeriodicCkpt), scenario.OutputDiff))[0].Heatmap,
		"fig7f_abft_diff_small": runSpec(t, Fig7Spec("fig7_diff", goldenDiffConfig(model.AbftPeriodicCkpt), scenario.OutputDiff))[0].Heatmap,
		"table_weibull_small":   runSpec(t, WeibullSensitivitySpec([]float64{0.5, 0.7, 1.0}, 10, 7))[0].Table,
		"table_dist_small":      runSpec(t, DistSensitivitySpec(DefaultDistCases(), 10, 7))[0].Table,
	}
	return arts
}

func checkGolden(t *testing.T, arts map[string]csvArtifact) {
	t.Helper()
	for name, art := range arts {
		var buf bytes.Buffer
		if err := art.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: WriteCSV: %v", name, err)
		}
		path := filepath.Join("testdata", "golden", name+".csv")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update): %v", name, err)
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Errorf("%s: CSV output diverged from golden file %s", name, path)
		}
	}
}

// TestGoldenModelCSV pins the analytic figures and tables to byte-identical
// CSV output across refactors of the figure pipeline.
func TestGoldenModelCSV(t *testing.T) {
	checkGolden(t, modelArtifacts(t))
}

// TestGoldenSimCSV pins the simulator-backed artifacts (reduced grids and
// repetition counts; still seeded and bit-reproducible).
func TestGoldenSimCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	checkGolden(t, simArtifacts(t))
}
