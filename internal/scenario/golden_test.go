package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden CSV files instead of comparing against them:
//
//	go test ./internal/scenario -run TestGolden -update
//
// The committed goldens were generated by the pre-scenario-engine figure
// code; they pin every later refactor to byte-identical CSV output.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenDir holds the golden CSVs and the reduced campaign files that
// produce them: each artifact of a campaign there is compared with
// <artifact>.csv next to it.
var goldenDir = filepath.Join("testdata", "golden")

// exampleCampaign is the path of a committed campaign under
// examples/campaigns.
func exampleCampaign(file string) string {
	return filepath.Join("..", "..", "examples", "campaigns", file)
}

// checkGolden runs the campaign file goldenDir/file through one Runner and
// compares every artifact's CSV with goldenDir/<artifact>.csv (or rewrites
// it under -update).
func checkGolden(t *testing.T, file string) {
	t.Helper()
	c, err := LoadFile(filepath.Join(goldenDir, file))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Runner{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Artifacts) == 0 {
		t.Fatalf("%s produced no artifacts", file)
	}
	for _, art := range rep.Artifacts {
		var buf bytes.Buffer
		if err := art.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: WriteCSV: %v", art.Name, err)
		}
		path := filepath.Join(goldenDir, art.Name+".csv")
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update): %v", art.Name, err)
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Errorf("%s: CSV output diverged from golden file %s", art.Name, path)
		}
	}
}

// TestGoldenModelCSV pins the analytic figures and tables of the paper's
// evaluation to byte-identical CSV output.
func TestGoldenModelCSV(t *testing.T) {
	checkGolden(t, "paper_model.json")
}

// TestGoldenSimCSV pins the simulator-backed paper artifacts (reduced
// grids and repetition counts; still seeded and bit-reproducible).
func TestGoldenSimCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	checkGolden(t, "paper_sim.json")
}

// TestGoldenSilentMLModelCSV pins the analytic silent-error and multi-level
// artifacts (full default grids) to byte-identical CSV output.
func TestGoldenSilentMLModelCSV(t *testing.T) {
	checkGolden(t, "silentml_model.json")
}

// TestGoldenSilentMLSimCSV pins the simulator-backed silent-error and
// multi-level artifacts (reduced grids; still seeded and bit-reproducible).
func TestGoldenSilentMLSimCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	checkGolden(t, "silentml_sim.json")
}

// checkCanonicalCampaign checks that a committed campaign file loads
// through the strict parser and is in canonical form: re-encoding the
// loaded campaign with json.MarshalIndent reproduces the file byte for byte.
func checkCanonicalCampaign(t *testing.T, file string) {
	t.Helper()
	path := exampleCampaign(file)
	c, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, append(data, '\n')) {
		t.Errorf("%s is not in canonical form (json.MarshalIndent of the loaded campaign, two-space indent, trailing newline)", path)
	}
}

// TestPaperCampaignFile checks examples/campaigns/paper.json, the paper's
// Section V evaluation, loads strictly and is canonical.
func TestPaperCampaignFile(t *testing.T) {
	checkCanonicalCampaign(t, "paper.json")
}

// TestSilentCampaignFile checks examples/campaigns/silent.json loads
// strictly and is canonical.
func TestSilentCampaignFile(t *testing.T) {
	checkCanonicalCampaign(t, "silent.json")
}

// TestMultiLevelCampaignFile checks examples/campaigns/multilevel.json
// loads strictly and is canonical.
func TestMultiLevelCampaignFile(t *testing.T) {
	checkCanonicalCampaign(t, "multilevel.json")
}

// TestPaperCampaignValidates checks that paper.json names every artifact of
// the historical figure output.
func TestPaperCampaignValidates(t *testing.T) {
	c, err := LoadFile(exampleCampaign("paper.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range c.Scenarios {
		names[s.Name] = true
	}
	for _, want := range []string{
		"fig7a_pure_model", "fig7b_pure_diff", "fig7c_bi_model", "fig7d_bi_diff",
		"fig7e_abft_model", "fig7f_abft_diff", "fig8", "fig9", "fig10",
		"table_fig10_parity", "table_periods", "table_ablation_epochs",
		"table_ablation_safeguard", "table_weibull", "table_dist_sensitivity",
	} {
		if !names[want] {
			t.Errorf("campaign is missing scenario %q", want)
		}
	}
}

// TestQuickstartCampaignLoads checks the hand-written quickstart example
// (the one CI runs) validates against the engine.
func TestQuickstartCampaignLoads(t *testing.T) {
	c, err := LoadFile(exampleCampaign("quickstart.json"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlanCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cells == 0 {
		t.Error("quickstart campaign expands to zero cells")
	}
}
