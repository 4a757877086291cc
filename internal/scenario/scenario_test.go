package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
)

// minimal returns a valid one-scenario campaign JSON for mutation tests.
func minimal() string {
	return `{
		"name": "t",
		"scenarios": [
			{"name": "h", "kind": "heatmap", "protocol": "abft",
			 "mtbf_minutes": {"values": [60, 120]}, "alphas": {"values": [0, 1]}}
		]
	}`
}

func TestLoadValid(t *testing.T) {
	c, err := Load(strings.NewReader(minimal()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "t" || len(c.Scenarios) != 1 {
		t.Fatalf("unexpected campaign: %+v", c)
	}
	p, err := PlanCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Scenarios[0].Cells; got != 4 {
		t.Fatalf("cell count = %d, want 4", got)
	}
}

// overflowCampaign passes every input check, but its MTBF overflows to +Inf
// once expansion converts minutes to seconds.
const overflowCampaign = `{"name":"x","scenarios":[{"name":"h","kind":"heatmap","protocol":"pure","output":"model",` +
	`"mtbf_minutes":{"values":[1e307]},"alphas":{"values":[0.5]}}]}`

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"unknown field", `{"name":"t","scenarios":[],"bogus":1}`, "bogus"},
		{"no scenarios", `{"name":"t","scenarios":[]}`, "no scenarios"},
		{"negative campaign reps", `{"name":"t","reps":-1,"scenarios":[{"name":"a","kind":"periods"}]}`, "reps"},
		{"missing scenario name", `{"name":"t","scenarios":[{"kind":"periods"}]}`, "no name"},
		{"duplicate names", `{"name":"t","scenarios":[{"name":"a","kind":"periods"},{"name":"a","kind":"periods"}]}`, "duplicate"},
		{"missing kind", `{"name":"t","scenarios":[{"name":"a"}]}`, "kind is required"},
		{"unknown kind", `{"name":"t","scenarios":[{"name":"a","kind":"pie"}]}`, "unknown kind"},
		{"heatmap without protocol", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap"}]}`, "protocol"},
		{"unknown protocol", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"best"}]}`, "unknown protocol"},
		{"unknown platform", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","platform":"nope"}]}`, "unknown platform"},
		{"unknown output", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","output":"png"}]}`, "unknown output"},
		{"bad axis range", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","alphas":{"from":0}}]}`, "range axis"},
		{"conflicting axis", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","alphas":{"values":[1],"preset":"paper-nodes"}}]}`, "exactly one"},
		{"unknown preset", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","alphas":{"preset":"galaxy"}}]}`, "unknown axis preset"},
		{"overflowing resolved mtbf", overflowCampaign, `scenario "h": cell 0: scenario: cell params must be finite`},
		{"non-finite axis", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","alphas":{"values":[1e999]}}]}`, "parse"},
		{"scaling without series", `{"name":"t","scenarios":[{"name":"a","kind":"scaling"}]}`, "at least one series"},
		{"unknown scaling platform", `{"name":"t","scenarios":[{"name":"a","kind":"scaling","series":[{"platform":"nope","protocol":"pure"}]}]}`, "unknown scaling platform"},
		{"bad scaling law", `{"name":"t","scenarios":[{"name":"a","kind":"scaling","series":[{"platform":"paper-fig10","protocol":"pure","overrides":{"ckpt_scaling":"cubic"}}]}]}`, "unknown scaling law"},
		{"points without rows", `{"name":"t","scenarios":[{"name":"a","kind":"points"}]}`, "at least one row"},
		{"points without nodes", `{"name":"t","scenarios":[{"name":"a","kind":"points","rows":[{"label":"x","platform":"paper-fig10","protocol":"pure"}]}]}`, "nodes > 0"},
		{"bad ablation variant", `{"name":"t","scenarios":[{"name":"a","kind":"ablation","variant":"color"}]}`, "ablation variant"},
		{"sensitivity without cases", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity"}]}`, "at least one case"},
		{"unknown distribution", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity","cases":[{"name":"x","dist":"cauchy"}]}]}`, "unknown distribution"},
		{"missing shape", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity","cases":[{"name":"x","dist":"weibull"}]}]}`, "needs shape in"},
		{"negative spec reps", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity","reps":-2,"cases":[{"name":"x","dist":"exp"}]}]}`, "reps"},
		{"negative fixed period", `{"name":"t","scenarios":[{"name":"a","kind":"periods","options":{"fixed_period_g":-1}}]}`, "non-negative"},
		{"heatmap with series", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","series":[{"platform":"paper-fig10","protocol":"pure"}]}]}`, `field "series" does not apply`},
		{"sensitivity with heatmap axis", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity","mtbf_minutes":{"values":[60]},"cases":[{"name":"x","dist":"exp"}]}]}`, `field "mtbf_minutes" does not apply`},
		{"periods with protocol", `{"name":"t","scenarios":[{"name":"a","kind":"periods","protocol":"pure"}]}`, `field "protocol" does not apply`},
		{"analytic kind with reps", `{"name":"t","scenarios":[{"name":"a","kind":"scaling","reps":500,"series":[{"platform":"paper-fig10","protocol":"pure"}]}]}`, `field "reps" does not apply`},
		{"analytic kind with seed", `{"name":"t","scenarios":[{"name":"a","kind":"periods","seed":1}]}`, `field "seed" does not apply`},
		{"model heatmap with distribution", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","distribution":{"name":"weibull","shape":0.7}}]}`, `only applies to output sim or diff`},
		{"empty axis values", `{"name":"t","scenarios":[{"name":"a","kind":"heatmap","protocol":"abft","output":"sim","alphas":{"values":[]}}]}`, "non-empty"},
		{"periods past the cell limit", `{"name":"t","scenarios":[{"name":"a","kind":"periods","ckpt_costs":[` +
			repeatJSON("60", 201) + `],"mtbfs":[` + repeatJSON("3600", 201) + `]}]}`, "exceeding the 40000-cell limit"},
		{"points past the cell limit", `{"name":"t","scenarios":[{"name":"a","kind":"points","at_nodes":1000,"rows":[` +
			repeatJSON(`{"label":"x","platform":"paper-fig10","protocol":"pure"}`, 40_001) + `]}]}`, "exceeding the 40000-cell limit"},
		{"sensitivity past the cell limit", `{"name":"t","scenarios":[{"name":"a","kind":"sensitivity","cases":[` +
			repeatJSON(`{"name":"x","dist":"exp"}`, 13_334) + `]}]}`, "exceeding the 40000-cell limit"},
		{"artifact name collision", `{"name":"t","scenarios":[{"name":"x","kind":"scaling","series":[{"platform":"paper-fig10","protocol":"pure"}]},{"name":"x_waste","kind":"periods"}]}`, `both produce artifact "x_waste"`},
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

// repeatJSON joins n copies of a JSON value with commas.
func repeatJSON(v string, n int) string {
	return strings.TrimSuffix(strings.Repeat(v+",", n), ",")
}

// TestMisplacedFieldsRejected walks the kind registry: every kind rejects
// a field of every other kind, and an analytic kind rejects seed and reps,
// all with the misplaced-field message.
func TestMisplacedFieldsRejected(t *testing.T) {
	for _, k := range kinds {
		var foreign []string
		for _, other := range kinds {
			for _, f := range other.fields {
				if !slices.Contains(k.fields, f) && !slices.Contains(foreign, f) {
					foreign = append(foreign, f)
					break
				}
			}
		}
		if !k.simulates {
			foreign = append(foreign, "seed", "reps")
		}
		for _, f := range foreign {
			js := fmt.Sprintf(`{"name":"t","scenarios":[{"name":"a","kind":%q,%q:1}]}`, k.name, f)
			want := fmt.Sprintf("field %q does not apply to kind %q", f, k.name)
			if _, err := Load(strings.NewReader(js)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with %s: error %v, want %q", k.name, f, err, want)
			}
		}
	}
}

// TestSpecParamsFromGo covers Go callers: nil Params means the kind's
// zero params, and params of another kind fail expansion.
func TestSpecParamsFromGo(t *testing.T) {
	c := &Campaign{Name: "t", Scenarios: []*Spec{{Name: "pd", Kind: KindPeriods}}}
	if p, err := PlanCampaign(c); err != nil || p.Scenarios[0].Cells != 6 {
		t.Errorf("periods with nil params: plan %+v (error %v), want the 6 default cells", p, err)
	}
	wrong := &Spec{Name: "pd", Kind: KindPeriods, Params: &HeatmapParams{Protocol: ProtoAbft}}
	if _, err := wrong.expand(c); err == nil || !strings.Contains(err.Error(), "do not match kind") {
		t.Errorf("mismatched params: error %v", err)
	}
	if _, err := json.Marshal(&Spec{Name: "pd", Kind: KindPeriods, Params: 5}); err == nil {
		t.Error("params that are not a JSON object should not marshal")
	}
}

func TestAxisResolve(t *testing.T) {
	def := []float64{1, 2}
	if got, _ := (*Axis)(nil).Resolve(def); len(got) != 2 {
		t.Fatalf("nil axis should yield the default, got %v", got)
	}
	from, to := 0.0, 1.0
	got, err := (&Axis{From: &from, To: &to, Count: 3}).Resolve(nil)
	if err != nil || len(got) != 3 || got[1] != 0.5 {
		t.Fatalf("linspace axis = %v (%v)", got, err)
	}
	nodes, err := (&Axis{Preset: "paper-nodes"}).Resolve(nil)
	if err != nil || len(nodes) == 0 || nodes[len(nodes)-1] != 1_000_000 {
		t.Fatalf("paper-nodes preset = %v (%v)", nodes, err)
	}
}

func TestPlatformCatalogue(t *testing.T) {
	if len(PlatformNames()) == 0 || len(ScalingPlatformNames()) == 0 {
		t.Fatal("catalogue must not be empty")
	}
	p, err := LookupPlatform("paper-fig7")
	if err != nil {
		t.Fatal(err)
	}
	// The catalogue platform must match the paper's Figure 7 parameters.
	want := model.Fig7Params(2*model.Hour, 0.5)
	got := p.Params
	got.Mu, got.Alpha = want.Mu, want.Alpha
	if got != want {
		t.Fatalf("paper-fig7 = %+v, want %+v", got, want)
	}
	for _, name := range ScalingPlatformNames() {
		sp, err := LookupScalingPlatform(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Scaling.ParamsAt(sp.Scaling.BaseNodes).Validate(); err != nil {
			t.Errorf("platform %s yields invalid params: %v", name, err)
		}
	}
}

func TestJSONFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, math.Inf(1), math.Inf(-1), math.NaN()} {
		b, err := json.Marshal(JSONFloat(v))
		if err != nil {
			t.Fatal(err)
		}
		var back JSONFloat
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(v) != math.IsNaN(float64(back)) || (!math.IsNaN(v) && v != float64(back)) {
			t.Errorf("%v -> %s -> %v", v, b, float64(back))
		}
	}
	var f JSONFloat
	if err := json.Unmarshal([]byte(`"huge"`), &f); err == nil {
		t.Error("invalid float string should not parse")
	}
}

func TestCellHashStability(t *testing.T) {
	p := model.Fig7Params(2*model.Hour, 0.8)
	a := CellSpec{Op: OpModel, Protocol: ProtoAbft, Params: &p}
	b := CellSpec{Op: OpModel, Protocol: ProtoAbft, Params: &p}
	if a.Hash() != b.Hash() {
		t.Error("equal specs must hash equally")
	}
	q := p
	q.Alpha = 0.9
	c := CellSpec{Op: OpModel, Protocol: ProtoAbft, Params: &q}
	if a.Hash() == c.Hash() {
		t.Error("different specs must hash differently")
	}
}

func TestScalingLawJSON(t *testing.T) {
	w := model.Fig8Scenario(model.ScaleLinear)
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"linear"`) || !strings.Contains(string(b), `"sqrt"`) {
		t.Fatalf("scaling laws should serialize by name: %s", b)
	}
	var back model.WeakScaling
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != w {
		t.Fatalf("round trip mismatch: %+v != %+v", back, w)
	}
	if err := json.Unmarshal([]byte(`{"CkptScaling":"cubic"}`), &back); err == nil {
		t.Error("unknown law name should fail to parse")
	}
}

// degenerateShapes are distribution specs whose laws break down numerically
// at an ordinary MTBF: Weibull shape 0.001 overflows Gamma(1+1/k) and
// collapses the scale to 0 (the constructor panics), a log-normal sigma of
// 1e200 drives mu to -Inf (the constructor panics), and gamma shape 1e-300
// underflows every draw to 0, so a walker waiting for the next arrival
// never advances.
var degenerateShapes = []struct{ name, dist string }{
	{"weibull 0.001", `{"name":"weibull","shape":0.001}`},
	{"lognormal 1e200", `{"name":"lognormal","shape":1e200}`},
	{"gamma 1e-300", `{"name":"gamma","shape":1e-300}`},
}

// Each degenerate spec must be refused at load time with an error naming
// its scenario, and a sim cell carrying it must fail validation, before any
// worker constructs or draws from the law.
func TestDegenerateShapesRejected(t *testing.T) {
	for _, tc := range degenerateShapes {
		t.Run(tc.name, func(t *testing.T) {
			body := `{"name":"t","scenarios":[{"name":"deg","kind":"heatmap","output":"sim","protocol":"pure","reps":4,` +
				`"distribution":` + tc.dist + `,"mtbf_minutes":{"values":[60]},"alphas":{"values":[0.5]}}]}`
			_, err := Load(strings.NewReader(body))
			if err == nil || !strings.Contains(err.Error(), `scenario "deg"`) {
				t.Fatalf("Load: error %v, want one naming scenario \"deg\"", err)
			}
			var d DistSpec
			if err := json.Unmarshal([]byte(tc.dist), &d); err != nil {
				t.Fatal(err)
			}
			p := model.Params{T0: 604800, Alpha: 0.5, Mu: 3600, C: 600, R: 600, D: 60, Rho: 0.8, Phi: 1.03, Recons: 2}
			cell := CellSpec{Op: OpSim, Protocol: "pure", Params: &p, Reps: 4, Dist: &d}
			if err := cell.Validate(); err == nil {
				t.Fatalf("sim cell with %s validated", tc.dist)
			}
		})
	}
}

// The bounds are inclusive and admit every shape the committed campaigns
// use; just outside them the spec is refused.
func TestShapeBoundsEdges(t *testing.T) {
	for _, tc := range []struct {
		d  DistSpec
		ok bool
	}{
		{DistSpec{Name: DistWeibull, Shape: dist.MinWeibullShape}, true},
		{DistSpec{Name: DistWeibull, Shape: dist.MaxWeibullShape}, true},
		{DistSpec{Name: DistWeibull, Shape: math.Nextafter(dist.MinWeibullShape, 0)}, false},
		{DistSpec{Name: DistWeibull, Shape: math.Nextafter(dist.MaxWeibullShape, 1000)}, false},
		{DistSpec{Name: DistGamma, Shape: dist.MinGammaShape}, true},
		{DistSpec{Name: DistGamma, Shape: dist.MaxGammaShape}, true},
		{DistSpec{Name: DistGamma, Shape: math.Nextafter(dist.MinGammaShape, 0)}, false},
		{DistSpec{Name: DistGamma, Shape: math.Nextafter(dist.MaxGammaShape, 1e4)}, false},
		{DistSpec{Name: DistLogNormal, Shape: 1e-9}, true},
		{DistSpec{Name: DistLogNormal, Shape: dist.MaxLogNormalSigma}, true},
		{DistSpec{Name: DistLogNormal, Shape: math.Nextafter(dist.MaxLogNormalSigma, 100)}, false},
		{DistSpec{Name: DistLogNormal, Shape: 0}, false},
	} {
		if err := tc.d.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate error %v, want ok=%v", tc.d, err, tc.ok)
		}
	}
}
