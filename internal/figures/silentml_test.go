package figures

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"abftckpt/internal/scenario"
)

// silentGoldenConfig is a reduced silent-error grid so the simulation-backed
// goldens stay fast enough for every test run.
func silentGoldenConfig(recovery string) SilentHeatmapConfig {
	return SilentHeatmapConfig{
		Recovery:    recovery,
		MTBEMinutes: []float64{60, 120, 240},
		VerifyCosts: []float64{30, 120, 600},
		Reps:        10,
		Seed:        1,
	}
}

// silentMLModelArtifacts are the analytic silent-error and multi-level
// figures (full default grids; deterministic).
func silentMLModelArtifacts(t *testing.T) map[string]csvArtifact {
	arts := map[string]csvArtifact{
		"silent_backward_model": runSpec(t, SilentHeatmapSpec("silent_model", SilentHeatmapConfig{Recovery: "backward"}, scenario.OutputModel))[0].Heatmap,
		"silent_forward_model":  runSpec(t, SilentHeatmapSpec("silent_model", SilentHeatmapConfig{Recovery: "forward"}, scenario.OutputModel))[0].Heatmap,
	}
	ml := runSpec(t, MultiLevelScalingSpec("multilevel", DefaultMLSeries(),
		[]float64{1_000, 10_000, 100_000, 1_000_000}, scenario.OutputModel))
	arts["multilevel_waste"], arts["multilevel_schedule"] = ml[0].Chart, ml[1].Table
	return arts
}

// silentMLSimArtifacts exercise the simulator-backed silent-error and
// multi-level paths at reduced grids and repetitions.
func silentMLSimArtifacts(t *testing.T) map[string]csvArtifact {
	arts := map[string]csvArtifact{
		"silent_backward_diff_small": runSpec(t, SilentHeatmapSpec("silent_diff", silentGoldenConfig("backward"), scenario.OutputDiff))[0].Heatmap,
		"silent_forward_diff_small":  runSpec(t, SilentHeatmapSpec("silent_diff", silentGoldenConfig("forward"), scenario.OutputDiff))[0].Heatmap,
	}
	spec := MultiLevelScalingSpec("multilevel_sim", DefaultMLSeries(),
		[]float64{10_000, 1_000_000}, scenario.OutputSim)
	seed := uint64(1)
	spec.Seed = &seed
	spec.Reps = 10
	simArts := runSpec(t, spec)
	arts["multilevel_sim_waste_small"] = simArts[0].Chart
	arts["multilevel_sim_schedule_small"] = simArts[1].Table
	return arts
}

// TestGoldenSilentMLModelCSV pins the analytic silent-error and multi-level
// artifacts to byte-identical CSV output.
func TestGoldenSilentMLModelCSV(t *testing.T) {
	checkGolden(t, silentMLModelArtifacts(t))
}

// TestGoldenSilentMLSimCSV pins the simulator-backed silent-error and
// multi-level artifacts (reduced grids; still seeded and bit-reproducible).
func TestGoldenSilentMLSimCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	checkGolden(t, silentMLSimArtifacts(t))
}

// checkCampaignFile pins a committed campaign JSON file to its builder (run
// with -update after changing either) and checks it loads through the strict
// parser.
func checkCampaignFile(t *testing.T, path string, c *scenario.Campaign) {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(want, data) {
		t.Errorf("%s diverged from its builder (run with -update)", path)
	}
	if _, err := scenario.LoadFile(path); err != nil {
		t.Errorf("committed campaign does not load: %v", err)
	}
}

// TestSilentCampaignFile pins examples/campaigns/silent.json to
// SilentCampaign.
func TestSilentCampaignFile(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "campaigns", "silent.json")
	checkCampaignFile(t, path, SilentCampaign(100, 42, true))
}

// TestMultiLevelCampaignFile pins examples/campaigns/multilevel.json to
// MultiLevelCampaign.
func TestMultiLevelCampaignFile(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "campaigns", "multilevel.json")
	checkCampaignFile(t, path, MultiLevelCampaign(100, 42, true))
}
