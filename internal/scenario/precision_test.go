package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"abftckpt/internal/model"
)

// simCellSpec returns a small valid simulation cell for hash tests.
func simCellSpec() CellSpec {
	p := model.Fig7Params(2*model.Hour, 0.8)
	return CellSpec{
		Op: OpSim, Protocol: ProtoAbft, Params: &p,
		Epochs: 1, Reps: 64, Seed: 7, Dist: &DistSpec{Name: DistExponential},
	}
}

// TestPrecisionEntersCellHash pins the cache-key discipline: an adaptive
// cell must never share a cache key with its fixed-rep twin (serving one
// for the other would silently change artifacts), while a nil precision
// block must leave the canonical encoding — and so every pre-existing
// cache entry and golden — untouched.
func TestPrecisionEntersCellHash(t *testing.T) {
	fixed := simCellSpec()
	if bytes.Contains(fixed.Canonical(), []byte("precision")) {
		t.Fatal("nil precision must stay out of the canonical encoding")
	}
	adaptive := simCellSpec()
	adaptive.Precision = &CellPrecision{RelCI: 0.1}
	if fixed.Hash() == adaptive.Hash() {
		t.Fatal("adaptive and fixed-rep cells must not share a cache key")
	}
	tighter := simCellSpec()
	tighter.Precision = &CellPrecision{RelCI: 0.05}
	if adaptive.Hash() == tighter.Hash() {
		t.Fatal("different precision targets must hash differently")
	}
	same := simCellSpec()
	same.Precision = &CellPrecision{RelCI: 0.1}
	if adaptive.Hash() != same.Hash() {
		t.Fatal("equal precision blocks must hash equally")
	}
}

// TestPrecisionSharesProcessKey pins the other side of the discipline: the
// failure process does not depend on the precision block, so adaptive cells
// must keep grouping into the same trace cohorts as their fixed-rep twins.
func TestPrecisionSharesProcessKey(t *testing.T) {
	fixed := simCellSpec()
	adaptive := simCellSpec()
	adaptive.Precision = &CellPrecision{RelCI: 0.1}
	ka, oka := SimProcessKey(fixed)
	kb, okb := SimProcessKey(adaptive)
	if !oka || !okb || ka != kb {
		t.Fatalf("precision must not change the process key: %+v vs %+v", ka, kb)
	}
}

func TestPrecisionValidation(t *testing.T) {
	good := simCellSpec()
	good.Precision = &CellPrecision{RelCI: 0.1, Batch: 32}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid precision rejected: %v", err)
	}
	noTarget := simCellSpec()
	noTarget.Precision = &CellPrecision{}
	if err := noTarget.Validate(); err == nil {
		t.Error("precision without a target should be rejected")
	}
	negative := simCellSpec()
	negative.Precision = &CellPrecision{RelCI: -0.1}
	if err := negative.Validate(); err == nil {
		t.Error("negative target should be rejected")
	}
	p := model.Fig7Params(2*model.Hour, 0.8)
	onModel := CellSpec{Op: OpModel, Protocol: ProtoAbft, Params: &p,
		Precision: &CellPrecision{RelCI: 0.1}}
	if err := onModel.Validate(); err == nil {
		t.Error("precision on a model cell should be rejected")
	}
}

func TestPrecisionSpecExpansionErrors(t *testing.T) {
	c := &Campaign{Name: "t", Reps: 16}
	cases := []struct {
		name string
		spec *Spec
		want string
	}{
		{"model output", &Spec{Name: "x", Kind: KindHeatmap, Params: &HeatmapParams{Protocol: ProtoAbft,
			Precision: &PrecisionSpec{RelCI: 0.1}}}, "output sim or diff"},
		{"baseline without share_traces", &Spec{Name: "x", Kind: KindHeatmap, Params: &HeatmapParams{Protocol: ProtoAbft,
			Output:    OutputSim,
			Precision: &PrecisionSpec{RelCI: 0.1, Baseline: ProtoPure}}}, "share_traces"},
		{"baseline equals protocol", &Spec{Name: "x", Kind: KindHeatmap, Params: &HeatmapParams{Protocol: ProtoAbft,
			Output: OutputSim, ShareTraces: true,
			Precision: &PrecisionSpec{RelCI: 0.1, Baseline: ProtoAbft}}}, "must differ"},
		{"baseline on diff output", &Spec{Name: "x", Kind: KindHeatmap, Params: &HeatmapParams{Protocol: ProtoAbft,
			Output: OutputDiff, ShareTraces: true,
			Precision: &PrecisionSpec{RelCI: 0.1, Baseline: ProtoPure}}}, "output \"sim\""},
		{"baseline on sensitivity", &Spec{Name: "x", Kind: KindSensitivity, Params: &SensitivityParams{ShareTraces: true,
			Cases:     []CaseSpec{{Name: "exp", Dist: DistExponential}},
			Precision: &PrecisionSpec{RelCI: 0.1, Baseline: ProtoPure}}}, "heatmap"},
		{"no target", &Spec{Name: "x", Kind: KindSensitivity, Params: &SensitivityParams{
			Cases:     []CaseSpec{{Name: "exp", Dist: DistExponential}},
			Precision: &PrecisionSpec{}}}, "target"},
	}
	for _, tc := range cases {
		_, err := tc.spec.expand(c)
		if err == nil {
			t.Errorf("%s: expansion should fail", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Typed params cannot carry a misplaced field, so that case is JSON.
	const precisionOnScaling = `{"name":"t","reps":16,"scenarios":[{"name":"x","kind":"scaling",` +
		`"nodes":{"values":[1000]},"series":[{"platform":"paper-fig10","protocol":"pure"}],"precision":{"rel_ci":0.1}}]}`
	if _, err := Load(strings.NewReader(precisionOnScaling)); err == nil || !strings.Contains(err.Error(), "does not apply") {
		t.Errorf("precision on scaling kind: error %v does not mention %q", err, "does not apply")
	}
}

// adaptiveCampaign pairs an adaptive heatmap (with a paired baseline
// protocol) and an adaptive sensitivity scan, both trace-shared so cohorts
// form and the trace-replay adaptive path runs end to end.
func adaptiveCampaign() *Campaign {
	return &Campaign{
		Name: "adaptive",
		Reps: 96,
		Scenarios: []*Spec{
			{Name: "hm", Kind: KindHeatmap, Params: &HeatmapParams{Protocol: ProtoAbft, Output: OutputSim,
				ShareTraces: true,
				MTBFMinutes: &Axis{Values: []float64{60, 240}},
				Alphas:      &Axis{Values: []float64{0.2, 0.8}},
				Precision:   &PrecisionSpec{RelCI: 0.1, Batch: 16, Baseline: ProtoPure}}},
			{Name: "sn", Kind: KindSensitivity, Params: &SensitivityParams{ShareTraces: true,
				Cases: []CaseSpec{
					{Name: "exponential", Dist: DistExponential},
					{Name: "weibull07", Dist: DistWeibull, Shape: 0.7},
				},
				Precision: &PrecisionSpec{RelCI: 0.1, Batch: 16}}},
		},
	}
}

// TestRunnerAdaptiveCampaign is the campaign-level smoke test of the
// adaptive path: precision tables and paired-difference tables come out,
// the report counts adaptive work, and no cell exceeds its cap.
func TestRunnerAdaptiveCampaign(t *testing.T) {
	r := &Runner{Workers: 4}
	rep, err := r.Run(adaptiveCampaign())
	if err != nil {
		t.Fatal(err)
	}
	// 2x2 grid x {abft, pure} + 2 cases x 3 protocols, all unique.
	wantCells := 8 + 6
	if rep.AdaptiveCells != wantCells {
		t.Errorf("AdaptiveCells = %d, want %d", rep.AdaptiveCells, wantCells)
	}
	if rep.AdaptiveReplicasCap != int64(wantCells*96) {
		t.Errorf("AdaptiveReplicasCap = %d, want %d", rep.AdaptiveReplicasCap, wantCells*96)
	}
	if rep.AdaptiveReplicasUsed <= 0 || rep.AdaptiveReplicasUsed > rep.AdaptiveReplicasCap {
		t.Errorf("AdaptiveReplicasUsed = %d outside (0, %d]", rep.AdaptiveReplicasUsed, rep.AdaptiveReplicasCap)
	}
	if rep.Cohorts == 0 || rep.CohortCells == 0 {
		t.Errorf("trace-shared adaptive campaign built no cohorts: %+v", rep)
	}
	names := map[string]bool{}
	for _, a := range rep.Artifacts {
		names[a.Name] = true
	}
	for _, want := range []string{"hm", "hm_precision", "sn", "sn_precision", "sn_pairs"} {
		if !names[want] {
			t.Errorf("missing artifact %q (have %v)", want, names)
		}
	}
	for _, a := range rep.Artifacts {
		if a.Table == nil {
			continue
		}
		var buf bytes.Buffer
		if err := a.WriteCSV(&buf); err != nil {
			t.Fatalf("artifact %s: %v", a.Name, err)
		}
		switch a.Name {
		case "hm_precision":
			for _, col := range []string{"diff_ci95", "reps_cap", "cv_ratio"} {
				if !strings.Contains(buf.String(), col) {
					t.Errorf("hm_precision lacks column %q", col)
				}
			}
		case "sn_pairs":
			if !strings.Contains(buf.String(), "pure-bi") {
				t.Errorf("sn_pairs lacks the pure-bi pair:\n%s", buf.String())
			}
		}
	}
}

// TestRunnerAdaptiveNeverServedStaleFixed is the cache-staleness regression:
// warming the cache with a fixed-rep campaign must not let an adaptive
// variant (or vice versa) be served from it, while rerunning either variant
// unchanged stays fully cached with byte-identical artifacts.
func TestRunnerAdaptiveNeverServedStaleFixed(t *testing.T) {
	fixedSpec := func() *Campaign {
		c := adaptiveCampaign()
		c.Scenarios[0].Params.(*HeatmapParams).Precision = nil
		c.Scenarios[1].Params.(*SensitivityParams).Precision = nil
		// The heatmap baseline grid only exists under precision; keep the
		// campaigns cell-compatible by comparing per-scenario sim cells.
		return c
	}
	cacheDir := t.TempDir()
	// Each run opens the cache afresh, so reruns are served by the disk
	// tier rather than by the memory tier of an earlier run.
	run := func(c *Campaign) (*Report, error) {
		return (&Runner{Cache: NewCellCache(cacheDir, 0), Workers: 4}).Run(c)
	}
	cold, err := run(fixedSpec())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Executed != cold.Unique || cold.AdaptiveCells != 0 {
		t.Fatalf("fixed cold run: executed=%d unique=%d adaptive=%d", cold.Executed, cold.Unique, cold.AdaptiveCells)
	}
	// Every adaptive sim cell must re-execute: none may be served from the
	// fixed-rep cache entries.
	adapt, err := run(adaptiveCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if adapt.AdaptiveCells != adapt.Executed {
		t.Fatalf("adaptive run after fixed warmup: executed=%d adaptive=%d (stale fixed result served?)",
			adapt.Executed, adapt.AdaptiveCells)
	}
	if adapt.AdaptiveCells == 0 {
		t.Fatal("adaptive run executed no adaptive cells")
	}
	// Rerunning the adaptive campaign unchanged is fully cached and
	// byte-identical.
	warm, err := run(adaptiveCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Executed != 0 || warm.CacheHits != warm.Unique {
		t.Fatalf("adaptive warm rerun: executed=%d cached=%d unique=%d", warm.Executed, warm.CacheHits, warm.Unique)
	}
	a, b := artifactCSVs(t, adapt), artifactCSVs(t, warm)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("artifact count changed: %d vs %d", len(a), len(b))
	}
	for name, csv := range a {
		if !bytes.Equal(csv, b[name]) {
			t.Errorf("artifact %s differs between live and cached adaptive run", name)
		}
	}
	// And the fixed campaign still replays from cache untouched.
	fixedWarm, err := run(fixedSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fixedWarm.Executed != 0 {
		t.Fatalf("fixed warm rerun executed %d cells after adaptive run", fixedWarm.Executed)
	}
}

// TestFixedCellResultHasNoAdaptiveKeys pins the serialized fixed-rep result
// format: adaptive extension fields must stay omitted, so cached entries
// and golden artifacts written before the adaptive mode existed still
// round-trip byte-identically.
func TestFixedCellResultHasNoAdaptiveKeys(t *testing.T) {
	res, err := simCellSpec().Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"reps_cap", "stopped", "looks", "cv_active", "cv_variance_ratio", "replicas"} {
		if bytes.Contains(b, []byte(key)) {
			t.Errorf("fixed-rep result leaks adaptive key %q: %s", key, b)
		}
	}
}

// TestAdaptiveCellUnderCohortMatchesSolo pins that a cohort walk does not
// change an adaptive cell's result (the scenario-level face of
// sim.FuzzCohortMatchesSolo).
func TestAdaptiveCellUnderCohortMatchesSolo(t *testing.T) {
	run := func(disable bool) *Report {
		r := &Runner{Workers: 2, DisableCohorts: disable}
		rep, err := r.Run(adaptiveCampaign())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	with, without := run(false), run(true)
	a, b := artifactCSVs(t, with), artifactCSVs(t, without)
	for name, csv := range a {
		if !bytes.Equal(csv, b[name]) {
			t.Errorf("artifact %s differs with and without cohorts", name)
		}
	}
}
