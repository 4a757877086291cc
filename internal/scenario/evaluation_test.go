package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Shape tests of the paper's Section V evaluation: each runs one scenario,
// either picked out of examples/campaigns/paper.json (the shipped grid,
// sometimes on a shorter node axis) or built as a registry literal, and
// checks the qualitative claims of the paper on its artifacts.

// runSpec executes a one-spec campaign through the engine and returns its
// artifacts in order.
func runSpec(t testing.TB, spec *Spec) []Artifact {
	t.Helper()
	rep, err := (&Runner{}).Run(&Campaign{Name: "inline", Scenarios: []*Spec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Artifacts
}

// paperScenario returns a fresh copy of the named scenario of
// examples/campaigns/paper.json.
func paperScenario(t testing.TB, name string) *Spec {
	t.Helper()
	c, err := LoadFile(exampleCampaign("paper.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Scenarios {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("paper.json has no scenario %q", name)
	return nil
}

// withNodes replaces the node axis of a scaling scenario of paper.json.
func withNodes(t testing.TB, name string, nodes []float64) *Spec {
	spec := paperScenario(t, name)
	spec.Params.(*ScalingParams).Nodes = &Axis{Values: nodes}
	return spec
}

// withSeedReps sets the seed and repetition count of a simulation-backed
// scenario.
func withSeedReps(spec *Spec, seed uint64, reps int) *Spec {
	spec.Seed, spec.Reps = &seed, reps
	return spec
}

// smallFig7Spec is a 3x3 Figure 7 heatmap of one protocol.
func smallFig7Spec(protocol, output string) *Spec {
	spec := &Spec{Name: "fig7_" + output, Kind: KindHeatmap, Params: &HeatmapParams{
		Output:      output,
		Protocol:    protocol,
		Platform:    "paper-fig7",
		MTBFMinutes: &Axis{Values: []float64{60, 120, 240}},
		Alphas:      &Axis{Values: []float64{0, 0.5, 1}},
	}}
	if output != OutputModel {
		withSeedReps(spec, 1, 30)
	}
	return spec
}

// parseCell parses a float cell of a rendered table.
func parseCell(s string) (float64, error) {
	var v float64
	_, err := fmt.Sscanf(s, "%f", &v)
	return v, err
}

func TestFig7ModelShape(t *testing.T) {
	h := runSpec(t, smallFig7Spec(ProtoPure, OutputModel))[0].Heatmap
	if h.Z.Rows != 3 || h.Z.Cols != 3 {
		t.Fatalf("grid shape %dx%d", h.Z.Rows, h.Z.Cols)
	}
	// Pure periodic: waste decreases with MTBF, constant in alpha.
	for col := 1; col < 3; col++ {
		if !(h.Z.At(0, col) < h.Z.At(0, col-1)) {
			t.Errorf("waste not decreasing in MTBF at col %d", col)
		}
	}
	for row := 1; row < 3; row++ {
		if h.Z.At(row, 0) != h.Z.At(0, 0) {
			t.Errorf("pure waste should not depend on alpha")
		}
	}
}

func TestFig7CompositeAlphaGradient(t *testing.T) {
	h := runSpec(t, smallFig7Spec(ProtoAbft, OutputModel))[0].Heatmap
	// At fixed MTBF, more library time means less waste for the composite
	// (Figure 7e: waste decreases toward alpha=1).
	for col := 0; col < 3; col++ {
		if !(h.Z.At(2, col) < h.Z.At(0, col)) {
			t.Errorf("composite waste at alpha=1 (%v) should be below alpha=0 (%v)",
				h.Z.At(2, col), h.Z.At(0, col))
		}
	}
}

func TestFig7DiffSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	h := runSpec(t, smallFig7Spec(ProtoAbft, OutputDiff))[0].Heatmap
	lo, hi := h.Z.MinMax()
	// Model and simulation must correspond within the paper's bounds.
	if lo < -0.13 || hi > 0.13 {
		t.Errorf("diff out of bounds: [%v, %v]", lo, hi)
	}
	if !strings.Contains(h.Title, "Difference") {
		t.Error("diff title missing")
	}
}

func TestFig8Charts(t *testing.T) {
	nodes := []float64{1_000, 10_000, 100_000, 1_000_000}
	arts := runSpec(t, withNodes(t, "fig8", nodes))
	waste, faults := arts[0].Chart, arts[1].Chart
	if len(waste.Series) != 7 || len(faults.Series) != 7 {
		t.Fatalf("series count: %d waste, %d faults", len(waste.Series), len(faults.Series))
	}
	byName := map[string][]float64{}
	for _, s := range waste.Series {
		byName[s.Name] = s.Values
	}
	pure := byName["PurePeriodicCkpt"]
	comp := byName["ABFT&PeriodicCkpt"]
	if pure == nil || comp == nil {
		t.Fatalf("missing headline series: %v", byName)
	}
	// Published shape: composite is worse below ~100k (paper: "up to
	// approximately 100,000 nodes, the fault-free overhead of ABFT
	// negatively impacts the waste"), better at 1M; crossover in the
	// 10^5..10^6 decade.
	for i := 0; i < 3; i++ {
		if !(comp[i] > pure[i]) {
			t.Errorf("at %v nodes: composite %v should exceed pure %v", nodes[i], comp[i], pure[i])
		}
	}
	if !(comp[3] < pure[3]) {
		t.Errorf("at 1M: composite %v should be below pure %v", comp[3], pure[3])
	}
	// The amortized composite variant is never worse than the per-epoch one.
	amortized := byName["ABFT&PeriodicCkpt (amortized ckpts)"]
	for i := range amortized {
		if amortized[i] > comp[i]+1e-9 {
			t.Errorf("amortized %v worse than per-epoch %v at %v nodes", amortized[i], comp[i], nodes[i])
		}
	}
	// The paper-stated linear variant must exist and become infeasible
	// (waste=1) at 1M nodes.
	lin := byName["PurePeriodicCkpt (C~x)"]
	if lin == nil || lin[3] != 1 {
		t.Errorf("linear-C variant at 1M: %v, want 1 (infeasible)", lin)
	}
}

func TestFig9Charts(t *testing.T) {
	nodes := []float64{1_000, 10_000, 100_000, 1_000_000}
	waste := runSpec(t, withNodes(t, "fig9", nodes))[0].Chart
	byName := map[string][]float64{}
	for _, s := range waste.Series {
		byName[s.Name] = s.Values
	}
	// Headline (paper-stated C~x): periodic checkpointing collapses at
	// scale; the composite is infeasible at 1M too (the remainder reload
	// alone exceeds the MTBF) but survives longer than pure.
	pure := byName["PurePeriodicCkpt"]
	comp := byName["ABFT&PeriodicCkpt"]
	if pure[3] != 1 {
		t.Errorf("pure at 1M with C~x: %v, want 1", pure[3])
	}
	if !(comp[2] < pure[2]) {
		t.Errorf("at 100k: composite %v should beat pure %v", comp[2], pure[2])
	}
}

func TestFig10Charts(t *testing.T) {
	nodes := []float64{10_000, 100_000, 1_000_000}
	arts := runSpec(t, withNodes(t, "fig10", nodes))
	waste, faults := arts[0].Chart, arts[1].Chart
	if len(waste.Series) != 3 {
		t.Fatalf("want 3 series, got %d", len(waste.Series))
	}
	byName := map[string][]float64{}
	for _, s := range waste.Series {
		byName[s.Name] = s.Values
	}
	// Constant checkpoint cost rescues the periodic protocols (finite
	// waste at 1M) but the composite still wins there.
	pure := byName["PurePeriodicCkpt"]
	comp := byName["ABFT&PeriodicCkpt"]
	if pure[2] >= 1 {
		t.Errorf("pure at 1M should be feasible, got %v", pure[2])
	}
	if !(comp[2] < pure[2]) {
		t.Errorf("composite %v should beat pure %v at 1M", comp[2], pure[2])
	}
	// Fault counts exist and grow with node count for the periodic series.
	for _, s := range faults.Series {
		if s.Name == "PurePeriodicCkpt" {
			if !(s.Values[2] > s.Values[0]) {
				t.Errorf("fault count should grow: %v", s.Values)
			}
		}
	}
}

func TestFig10ParityTable(t *testing.T) {
	tab := runSpec(t, paperScenario(t, "table_fig10_parity"))[0].Table
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, err := parseCell(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	pure60 := parse(tab.Rows[0][1])
	comp := parse(tab.Rows[2][1])
	pure6 := parse(tab.Rows[3][1])
	if !(comp < pure60) {
		t.Errorf("composite %v should beat pure-60s %v", comp, pure60)
	}
	if math.Abs(pure6-comp) > 0.05 {
		t.Errorf("10x cheaper checkpoints should reach parity: pure6=%v comp=%v", pure6, comp)
	}
}

func TestPeriodTable(t *testing.T) {
	tab := runSpec(t, paperScenario(t, "table_periods"))[0].Table
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := tab.Render()
	if !strings.Contains(out, "eq11") {
		t.Error("render missing column")
	}
	// No infeasible rows for these comfortable parameters.
	for _, row := range tab.Rows {
		if row[2] == "infeasible" {
			t.Errorf("unexpected infeasible row: %v", row)
		}
	}
}

func TestAblationTables(t *testing.T) {
	nodes := &Axis{Values: []float64{10_000, 1_000_000}}
	epochs := paperScenario(t, "table_ablation_epochs")
	epochs.Params.(*AblationParams).Nodes = nodes
	agg := runSpec(t, epochs)[0].Table
	if len(agg.Rows) != 2 {
		t.Fatalf("aggregation rows = %d", len(agg.Rows))
	}
	safeguard := paperScenario(t, "table_ablation_safeguard")
	safeguard.Params.(*AblationParams).Nodes = nodes
	sg := runSpec(t, safeguard)[0].Table
	if len(sg.Rows) != 2 {
		t.Fatalf("safeguard rows = %d", len(sg.Rows))
	}
	// Safeguard can only help (or tie): its waste is <= the no-safeguard one.
	for _, row := range sg.Rows {
		off, _ := parseCell(row[1])
		on, _ := parseCell(row[2])
		if on > off+1e-9 {
			t.Errorf("safeguard hurt: %v > %v at nodes=%s", on, off, row[0])
		}
	}
}

func TestWeibullSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	// The shipped shapes k = 0.7 and k = 1 (exponential), at 30 replicas.
	spec := withSeedReps(paperScenario(t, "table_weibull"), 5, 30)
	params := spec.Params.(*SensitivityParams)
	params.Cases = params.Cases[1:]
	tab := runSpec(t, spec)[0].Table
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if v, err := parseCell(cell); err != nil || v < 0 || v > 1 {
				t.Errorf("implausible waste cell %q", cell)
			}
		}
	}
}

func TestDistributionSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	spec := withSeedReps(paperScenario(t, "table_dist_sensitivity"), 5, 30)
	cases := spec.Params.(*SensitivityParams).Cases
	tab := runSpec(t, spec)[0].Table
	if len(tab.Rows) != len(cases) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(cases))
	}
	if tab.Rows[0][0] != "exponential" {
		t.Fatalf("first row should be the exponential baseline, got %q", tab.Rows[0][0])
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if v, err := parseCell(cell); err != nil || v <= 0 || v >= 1 {
				t.Errorf("%s: implausible waste cell %q", row[0], cell)
			}
		}
	}
}
