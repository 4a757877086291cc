package scenario

import (
	"math"
	"strings"
	"testing"

	"abftckpt/internal/model"
)

// silentCell returns a valid silent-error cell input for cell-level tests.
func silentCell(recovery string) *SilentCell {
	return &SilentCell{
		Params: model.SilentParams{
			W: 100_000, MuSilent: 3_600, V: 60, C: 120, R: 120, F: 30, Detect: 10,
		},
		Recovery: recovery,
	}
}

// mlCellParams returns valid two-level parameters for cell-level tests.
func mlCellParams() *model.MultiLevelParams {
	return &model.MultiLevelParams{
		W: 100_000, Mu: 50_000, D: 60, C1: 30, R1: 30, C2: 300, R2: 300, Coverage: 0.8,
	}
}

// TestSilentCellExecute pins the silent_model op to the analytic model and
// checks silent_sim produces a plausible aggregate.
func TestSilentCellExecute(t *testing.T) {
	mc := CellSpec{Op: OpSilentModel, Silent: silentCell("forward")}
	res, err := mc.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want := model.EvaluateSilent(model.SilentForward, mc.Silent.Params)
	if float64(res.SilentModel.Waste) != want.Waste || res.SilentModel.Patterns != want.Patterns {
		t.Fatalf("silent_model cell %+v does not match model %+v", res.SilentModel, want)
	}
	if res.SilentModel.Recovery != "forward" {
		t.Fatalf("recovery echoed as %q", res.SilentModel.Recovery)
	}

	sc := CellSpec{Op: OpSilentSim, Silent: silentCell("backward"), Reps: 5, Seed: 3}
	sres, err := sc.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if sres.Sim == nil || sres.Sim.Runs != 5 {
		t.Fatalf("silent_sim result: %+v", sres.Sim)
	}
	if w := float64(sres.Sim.WasteMean); !(w > 0 && w < 1) {
		t.Fatalf("silent_sim waste %v outside (0,1)", w)
	}
}

// TestMLCellExecute pins the ml_model op to the analytic model and checks
// ml_sim runs the schedule it is given.
func TestMLCellExecute(t *testing.T) {
	mc := CellSpec{Op: OpMLModel, MultiLevel: mlCellParams()}
	res, err := mc.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want := model.EvaluateMultiLevel(*mc.MultiLevel)
	if float64(res.MLModel.Waste) != want.Waste || res.MLModel.K != want.K ||
		float64(res.MLModel.Period) != want.Period {
		t.Fatalf("ml_model cell %+v does not match model %+v", res.MLModel, want)
	}

	params := mlCellParams()
	params.Period, params.K = want.Period, want.K
	sc := CellSpec{Op: OpMLSim, MultiLevel: params, Reps: 5, Seed: 3}
	sres, err := sc.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if sres.Sim == nil || sres.Sim.Runs != 5 {
		t.Fatalf("ml_sim result: %+v", sres.Sim)
	}
}

// TestSilentMLCellValidate covers the new ops' rejection paths.
func TestSilentMLCellValidate(t *testing.T) {
	cases := []struct {
		name string
		cell CellSpec
		want string
	}{
		{"silent model without block", CellSpec{Op: OpSilentModel}, "needs a silent block"},
		{"bad recovery", CellSpec{Op: OpSilentModel, Silent: silentCell("sideways")}, "recovery"},
		{"bad silent params", CellSpec{Op: OpSilentModel,
			Silent: &SilentCell{Params: model.SilentParams{}, Recovery: "backward"}}, "W > 0"},
		{"silent sim without reps", CellSpec{Op: OpSilentSim, Silent: silentCell("backward")}, "reps > 0"},
		{"silent sim over budget", CellSpec{Op: OpSilentSim, Silent: silentCell("backward"),
			Reps: MaxSimReps + 1}, "limit"},
		{"silent precision", CellSpec{Op: OpSilentSim, Silent: silentCell("backward"), Reps: 2,
			Precision: &CellPrecision{AbsCI: 0.01}}, "precision applies to sim cells only"},
		{"ml model without block", CellSpec{Op: OpMLModel}, "needs a multilevel block"},
		{"bad ml params", CellSpec{Op: OpMLModel, MultiLevel: &model.MultiLevelParams{}}, "W > 0"},
		{"ml sim without reps", CellSpec{Op: OpMLSim, MultiLevel: mlCellParams()}, "reps > 0"},
		{"ml sim bad dist", CellSpec{Op: OpMLSim, MultiLevel: mlCellParams(), Reps: 2,
			Dist: &DistSpec{Name: "cauchy"}}, "unknown distribution"},
		{"ml precision", CellSpec{Op: OpMLModel, MultiLevel: mlCellParams(),
			Precision: &CellPrecision{AbsCI: 0.01}}, "precision applies to sim cells only"},
		{"cascade shape out of range", CellSpec{Op: OpSilentSim, Silent: silentCell("backward"),
			Reps: 2, Dist: &DistSpec{Name: DistCascade, Shape: 1.5}}, "burst probability"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cell.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
		})
	}
}

// TestNewCellFieldsStayOutOfLegacyHashes guards the cache-key contract: the
// silent/multilevel extensions are omitempty, so the canonical encoding (and
// therefore the content hash) of every pre-existing cell shape is unchanged.
func TestNewCellFieldsStayOutOfLegacyHashes(t *testing.T) {
	p := model.Fig7Params(2*model.Hour, 0.8)
	for _, cell := range []CellSpec{
		{Op: OpModel, Protocol: ProtoAbft, Params: &p},
		{Op: OpSim, Protocol: ProtoPure, Params: &p, Reps: 3, Seed: 1},
		{Op: OpPeriods, Probe: &PeriodsProbe{C: 60, Mu: 7200, D: 60, R: 60}},
	} {
		enc := string(cell.Canonical())
		if strings.Contains(enc, "silent") || strings.Contains(enc, "multilevel") {
			t.Errorf("legacy %s cell encoding leaks new fields: %s", cell.Op, enc)
		}
	}
}

// silentMLCampaign exercises both new kinds end-to-end with small grids.
func silentMLCampaign() *Campaign {
	work := 20_000.0
	mtbfBase := 5_000_000.0
	return &Campaign{
		Name: "silent-ml",
		Reps: 3,
		Scenarios: []*Spec{
			{Name: "sh", Kind: KindSilentHeatmap, Params: &SilentHeatmapParams{Recovery: "forward",
				MTBEMinutes: &Axis{Values: []float64{30, 60}},
				VerifyCosts: &Axis{Values: []float64{30, 120}}}},
			{Name: "sd", Kind: KindSilentHeatmap, Params: &SilentHeatmapParams{Output: OutputDiff,
				MTBEMinutes: &Axis{Values: []float64{30, 60}},
				VerifyCosts: &Axis{Values: []float64{30, 120}},
				Silent:      &SilentSpec{Work: &work}}},
			{Name: "ml", Kind: KindMultiLevelScaling, Params: &MultiLevelScalingParams{
				Nodes: &Axis{Values: []float64{1_000, 10_000}},
				MLSeries: []MLSeriesSpec{
					{Name: "two-level", MTBFAtBase: &mtbfBase, Work: &work,
						C1: 10, R1: 10, C2: 100, R2: 100, Coverage: 0.8},
					{Name: "disk-only", MTBFAtBase: &mtbfBase, Work: &work,
						C1: 100, R1: 100, C2: 0, R2: 0, Coverage: 0, K: 1},
				}}},
			{Name: "ms", Kind: KindMultiLevelScaling, Params: &MultiLevelScalingParams{Output: OutputSim,
				Nodes: &Axis{Values: []float64{1_000}},
				MLSeries: []MLSeriesSpec{
					{Name: "two-level", MTBFAtBase: &mtbfBase, Work: &work,
						C1: 10, R1: 10, C2: 100, R2: 100, Coverage: 0.8},
				}}},
		},
	}
}

// TestSilentMLCampaignRuns is the scenario-level acceptance test of the new
// families: both kinds expand, execute and assemble through the Runner, and
// the artifacts carry the analytic/simulated waste surfaces.
func TestSilentMLCampaignRuns(t *testing.T) {
	c := silentMLCampaign()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	r := &Runner{Workers: 4}
	rep, err := r.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"sh", "sd", "ml_waste", "ml_schedule", "ms_waste", "ms_schedule"}
	if len(rep.Artifacts) != len(wantNames) {
		t.Fatalf("artifact count %d, want %d", len(rep.Artifacts), len(wantNames))
	}
	byName := map[string]Artifact{}
	for i, a := range rep.Artifacts {
		if a.Name != wantNames[i] {
			t.Errorf("artifact %d = %q, want %q", i, a.Name, wantNames[i])
		}
		byName[a.Name] = a
	}

	// The model silent heatmap matches a direct model evaluation at a corner.
	sh := byName["sh"].Heatmap
	if sh == nil {
		t.Fatal("sh artifact has no heatmap")
	}
	plat, _ := LookupPlatform("paper-fig7")
	p := plat.Params
	want := model.EvaluateSilent(model.SilentForward, model.SilentParams{
		W: p.T0, MuSilent: 30 * model.Minute, V: 30, C: p.C, R: p.R, F: 30, Detect: 10,
	})
	if got := sh.Z.At(0, 0); got != want.Waste {
		t.Errorf("sh corner waste %v, want model %v", got, want.Waste)
	}

	// The diff heatmap holds small values: sim minus model at a benign point.
	sd := byName["sd"].Heatmap
	for row := 0; row < 2; row++ {
		for col := 0; col < 2; col++ {
			if d := math.Abs(sd.Z.At(row, col)); d > 0.2 {
				t.Errorf("diff cell (%d,%d) = %v implausibly large", row, col, sd.Z.At(row, col))
			}
		}
	}

	// The schedule table reports one row per (series, node) with the
	// model-chosen schedule; the two-level series must use K > 1 somewhere.
	ml := byName["ml_schedule"].Table
	if ml == nil || len(ml.Rows) != 4 {
		t.Fatalf("ml_schedule rows: %+v", ml)
	}
	wasteChart := byName["ml_waste"].Chart
	if len(wasteChart.Series) != 2 || len(wasteChart.Series[0].Values) != 2 {
		t.Fatalf("ml_waste shape: %+v", wasteChart.Series)
	}
	for _, s := range wasteChart.Series {
		for _, w := range s.Values {
			if !(w > 0 && w < 1) {
				t.Errorf("series %q waste %v outside (0,1)", s.Name, w)
			}
		}
	}

	// Simulated output produces finite waste as well.
	ms := byName["ms_waste"].Chart
	if w := ms.Series[0].Values[0]; !(w >= 0 && w < 1) {
		t.Errorf("simulated ml waste %v outside [0,1)", w)
	}
}

// TestMultiLevelSimCellsBakeSchedule checks ml_sim cells carry the concrete
// model-resolved (period, K), so the cell spec alone reproduces the run.
func TestMultiLevelSimCellsBakeSchedule(t *testing.T) {
	c := silentMLCampaign()
	ex, err := c.Scenarios[3].expand(c)
	if err != nil {
		t.Fatal(err)
	}
	simCells := 0
	for _, cell := range ex.cells {
		if cell.Op != OpMLSim {
			continue
		}
		simCells++
		if cell.MultiLevel.Period <= 0 || cell.MultiLevel.K <= 0 {
			t.Errorf("ml_sim cell schedule not resolved: period=%v k=%d",
				cell.MultiLevel.Period, cell.MultiLevel.K)
		}
	}
	if simCells == 0 {
		t.Fatal("sim-output multilevel spec expanded no ml_sim cells")
	}
}

// TestSilentMLLoadErrors covers the JSON-level rejection paths of the new
// kinds and the cascade distribution spec.
func TestSilentMLLoadErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"bad recovery", `{"name":"t","scenarios":[{"name":"a","kind":"silent_heatmap","recovery":"sideways"}]}`, "recovery"},
		{"silent model with reps", `{"name":"t","scenarios":[{"name":"a","kind":"silent_heatmap","reps":5}]}`, "only applies to output sim"},
		{"silent field on heatmap", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","silent":{"work":10}}]}`, `field "silent" does not apply`},
		{"mtbe on sensitivity", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity","mtbe_minutes":{"values":[60]},"cases":[{"name":"x","dist":"exp"}]}]}`, `field "mtbe_minutes" does not apply`},
		{"ml without series", `{"name":"t","scenarios":[{"name":"a","kind":"multilevel_scaling"}]}`, "at least one ml_series"},
		{"ml series unnamed", `{"name":"t","scenarios":[{"name":"a","kind":"multilevel_scaling","ml_series":[{"mtbf_at_base":1e6,"c1":10,"c2":100,"coverage":0.5}]}]}`, "needs a name"},
		{"ml series without mtbf", `{"name":"t","scenarios":[{"name":"a","kind":"multilevel_scaling","ml_series":[{"name":"x","c1":10,"c2":100,"coverage":0.5}]}]}`, "mtbf_at_base"},
		{"ml diff output", `{"name":"t","scenarios":[{"name":"a","kind":"multilevel_scaling","output":"diff","ml_series":[{"name":"x","mtbf_at_base":1e6,"c1":10,"c2":100,"coverage":0.5}]}]}`, "want model or sim"},
		{"ml share_traces", `{"name":"t","scenarios":[{"name":"a","kind":"multilevel_scaling","share_traces":true,"ml_series":[{"name":"x","mtbf_at_base":1e6,"c1":10,"c2":100,"coverage":0.5}]}]}`, `field "share_traces" does not apply`},
		{"cascade without shape", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity","cases":[{"name":"x","dist":"cascade"}]}]}`, "burst probability"},
		{"cascade shape too big", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity","cases":[{"name":"x","dist":"cascade","shape":1.2}]}]}`, "burst probability"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestSensitivityCascadeCase checks the cascade law runs through a standard
// sensitivity scan: the correlated-burst process is a drop-in Distribution.
func TestSensitivityCascadeCase(t *testing.T) {
	c := &Campaign{
		Name: "cascade-sense",
		Reps: 3,
		Scenarios: []*Spec{
			{Name: "sn", Kind: KindSensitivity, Params: &SensitivityParams{Cases: []CaseSpec{
				{Name: "exponential", Dist: DistExponential},
				{Name: "cascading", Dist: DistCascade, Shape: 0.2},
			}}},
		},
	}
	rep, err := (&Runner{Workers: 2}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.Artifacts[0].Table
	if len(tab.Rows) != 2 {
		t.Fatalf("sensitivity rows: %+v", tab.Rows)
	}
}
