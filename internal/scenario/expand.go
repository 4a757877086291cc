package scenario

import (
	"cmp"
	"fmt"
	"math"

	"abftckpt/internal/model"
	"abftckpt/internal/plot"
	"abftckpt/internal/rng"
	"abftckpt/internal/stats"
	"abftckpt/internal/sweep"
)

// expansion is a resolved spec: its artifact names, its cells and the
// closure assembling cell results (in cell order) into artifacts.
type expansion struct {
	spec      *Spec
	artifacts []string
	cells     []CellSpec
	assemble  func(results []CellResult) ([]Artifact, error)
}

// expand resolves the spec against the campaign defaults, validates it, and
// returns its cell grid and assembler.
func (s *Spec) expand(c *Campaign) (*expansion, error) {
	if err := s.Options.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.Reps < 0 {
		return nil, fmt.Errorf("scenario %q: reps must be non-negative", s.Name)
	}
	k, err := lookupKind(s.Kind)
	var ex *expansion
	if err == nil {
		ex, err = k.expand(s, c)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	for i := range ex.cells {
		if err := ex.cells[i].Validate(); err != nil {
			return nil, fmt.Errorf("scenario %q: cell %d: %w", s.Name, i, err)
		}
	}
	return ex, nil
}

// maxScenarioCells bounds the cells of one scenario, so a mistyped (or
// fuzzed) spec fails validation instead of materializing an astronomically
// large cell slice. The paper's densest scenario is 798 cells (a 399-point
// diff heatmap); the limit admits a 20,000-point one.
const maxScenarioCells = 40_000

// checkCells rejects a scenario of n cells past maxScenarioCells. Every kind
// calls it with its full cell count before building any cell.
func checkCells(kind string, n int) error {
	if n > maxScenarioCells {
		return fmt.Errorf("%s grid has %d cells, exceeding the %d-cell limit", kind, n, maxScenarioCells)
	}
	return nil
}

// seedReps returns the spec's seed and repetition count, falling back to the
// campaign's, then to DefaultSeed and DefaultReps.
func (s *Spec) seedReps(c *Campaign) (seed uint64, reps int) {
	seed = valueOr(s.Seed, valueOr(c.Seed, DefaultSeed))
	reps = cmp.Or(max(s.Reps, 0), max(c.Reps, 0), DefaultReps)
	return seed, reps
}

// valueOr dereferences an optional value, falling back to def.
func valueOr[T any](v *T, def T) T {
	if v != nil {
		return *v
	}
	return def
}

// distOrExp canonicalizes an optional distribution to the exponential
// default, so equal scenarios hash equally however they spell the default.
func distOrExp(d *DistSpec) *DistSpec {
	if d == nil {
		return &DistSpec{Name: DistExponential}
	}
	cp := *d
	if cp.Name == DistExponential {
		cp.Shape = 0
	}
	return &cp
}

// Heatmap output variants.
const (
	OutputModel = "model"
	OutputSim   = "sim"
	OutputDiff  = "diff"
)

// simField is a field that only drives simulation cells, and whether the
// spec sets it.
type simField struct {
	name string
	set  bool
}

// parseOutput defaults an output to "model" and checks it ("diff" only
// where withDiff). A model output never simulates, so it rejects the
// simulation-only fields: accepting them would let a user believe e.g. a
// Weibull failure law took effect.
func (s *Spec) parseOutput(output string, withDiff bool, dist *DistSpec, more ...simField) (string, error) {
	want, simOutputs := "model or sim", "sim"
	if withDiff {
		want, simOutputs = "model, sim or diff", "sim or diff"
	}
	output = cmp.Or(output, OutputModel)
	if output != OutputModel && output != OutputSim && (output != OutputDiff || !withDiff) {
		return "", fmt.Errorf("unknown output %q (want %s)", output, want)
	}
	if output != OutputModel {
		return output, nil
	}
	for _, f := range append([]simField{{"distribution", dist != nil}, {"seed", s.Seed != nil}, {"reps", s.Reps != 0}}, more...) {
		if f.set {
			return "", fmt.Errorf("field %q only applies to output %s", f.name, simOutputs)
		}
	}
	return output, nil
}

// fixedPlatform looks up a fixed platform (default "paper-fig7") and applies
// its overrides to the params template.
func fixedPlatform(name string, o *ParamsOverride) (Platform, error) {
	plat, err := LookupPlatform(cmp.Or(name, "paper-fig7"))
	plat.Params = o.apply(plat.Params)
	return plat, err
}

// resolveNodes resolves a node-count axis against its default.
func resolveNodes(a *Axis, def []float64) ([]float64, error) {
	nodes, err := a.Resolve(def)
	if err == nil && len(nodes) == 0 {
		err = fmt.Errorf("node axis must be non-empty")
	}
	return nodes, err
}

// surface is the shared body of the heatmap and silent_heatmap kinds: a
// waste surface over a ys-by-xs grid from the model (output "model"), from
// simulation ("sim"), or both ("diff": simulated minus model waste).
type surface struct {
	output         string
	xLabel, yLabel string
	render         *RenderSpec
	xs, ys         []float64
}

// axes resolves both axes against their defaults.
func (g *surface) axes(kind string, x, y *Axis, xDef, yDef []float64) error {
	var err error
	if g.xs, err = x.Resolve(xDef); err != nil {
		return err
	}
	if g.ys, err = y.Resolve(yDef); err != nil {
		return err
	}
	if len(g.xs) == 0 || len(g.ys) == 0 {
		return fmt.Errorf("%s axes must be non-empty", kind)
	}
	return nil
}

// cells lays out the grids in the order the assembler reads them: the model
// grid (outputs model and diff), the sim grid (sim and diff), then the
// baseline sim grid if asked for. cell builds the cell at (row, col) of one
// grid.
func (g *surface) cells(kind string, baseline bool, cell func(sim, baseline bool, row, col int) CellSpec) ([]CellSpec, error) {
	type grid struct{ sim, baseline bool }
	var grids []grid
	if g.output != OutputSim {
		grids = append(grids, grid{false, false})
	}
	if g.output != OutputModel {
		grids = append(grids, grid{true, false})
	}
	if baseline {
		grids = append(grids, grid{true, true})
	}
	n := len(grids) * len(g.ys) * len(g.xs)
	if err := checkCells(kind, n); err != nil {
		return nil, err
	}
	cells := make([]CellSpec, 0, n)
	for _, gr := range grids {
		for row := range g.ys {
			for col := range g.xs {
				cells = append(cells, cell(gr.sim, gr.baseline, row, col))
			}
		}
	}
	return cells, nil
}

// title returns the spec's title, else the default format of the output
// (model, sim, diff) applied to args; explicit argument indexes let a
// format skip arguments.
func (g *surface) title(s *Spec, formats [3]string, args ...any) string {
	if s.Title != "" {
		return s.Title
	}
	f := formats[0]
	switch g.output {
	case OutputSim:
		f = formats[1]
	case OutputDiff:
		f = formats[2]
	}
	return fmt.Sprintf(f, args...)
}

// heatmap assembles the surface, rendered over [0, 1] (a diff over
// [-0.14, 0.14]) unless the spec's render range overrides it.
func (g *surface) heatmap(name, title string, results []CellResult, modelWaste func(CellResult) float64) Artifact {
	rows, cols := len(g.ys), len(g.xs)
	z := sweep.NewMatrix(rows, cols)
	for i := 0; i < rows*cols; i++ {
		switch g.output {
		case OutputModel:
			z.Set(i/cols, i%cols, modelWaste(results[i]))
		case OutputSim:
			z.Set(i/cols, i%cols, float64(results[i].Sim.WasteMean))
		case OutputDiff:
			z.Set(i/cols, i%cols, float64(results[rows*cols+i].Sim.WasteMean)-modelWaste(results[i]))
		}
	}
	lo, hi := 0.0, 1.0
	if g.output == OutputDiff {
		lo, hi = -0.14, 0.14
	}
	if g.render != nil {
		lo, hi = g.render.Lo, g.render.Hi
	}
	return Artifact{
		Name:     name,
		Heatmap:  &plot.Heatmap{Title: title, XLabel: g.xLabel, YLabel: g.yLabel, Xs: g.xs, Ys: g.ys, Z: z},
		RenderLo: lo,
		RenderHi: hi,
	}
}

// HeatmapParams are the fields of a heatmap spec: one protocol over an
// MTBF x alpha grid on a fixed platform.
type HeatmapParams struct {
	// ShareTraces drops the protocol from simulation-cell seed derivation,
	// so the specs of a campaign that simulate the same platform point with
	// the same seed observe identical failure realizations — the paper's
	// paired-comparison methodology (protocols judged on the same traces,
	// which also cancels trace noise out of waste differences). Shared
	// processes additionally let the runner generate each failure stream
	// once per cohort and replay it across cells (see docs/ARCHITECTURE.md,
	// "trace cohorts"). Off by default, which keeps historical seeds (and
	// golden artifacts) unchanged.
	ShareTraces bool `json:"share_traces,omitempty"`
	// Precision switches the simulation cells to adaptive-precision
	// execution: Reps becomes a per-cell cap and each cell runs replicas in
	// doubling batches until its waste CI half-width meets the target.
	Precision *PrecisionSpec `json:"precision,omitempty"`
	// Protocol is the protocol under study.
	Protocol string `json:"protocol,omitempty"`
	// Platform names a fixed catalogue platform (default "paper-fig7"; see
	// PlatformNames), which PlatformOverrides tweaks.
	Platform          string          `json:"platform,omitempty"`
	PlatformOverrides *ParamsOverride `json:"platform_overrides,omitempty"`
	// Output selects the variant: "model" (default), "sim" or "diff"
	// (simulated minus model waste).
	Output string `json:"output,omitempty"`
	// MTBFMinutes is the X axis in minutes (default 60..240, 19 points, as
	// in Figure 7).
	MTBFMinutes *Axis `json:"mtbf_minutes,omitempty"`
	// Alphas is the Y axis (default 0..1, 21 points).
	Alphas *Axis `json:"alphas,omitempty"`
	// Distribution selects the failure law for simulation cells (default
	// exponential).
	Distribution *DistSpec `json:"distribution,omitempty"`
	// Render bounds the ASCII color scale of the rendering.
	Render *RenderSpec `json:"render,omitempty"`
}

func expandHeatmap(s *Spec, p *HeatmapParams, c *Campaign) (*expansion, error) {
	g := &surface{
		xLabel: "MTBF system (minutes)",
		yLabel: "Ratio of time spent in Library Phase (alpha)",
		render: p.Render,
	}
	var err error
	if g.output, err = s.parseOutput(p.Output, true, p.Distribution,
		simField{"share_traces", p.ShareTraces}, simField{"precision", p.Precision != nil}); err != nil {
		return nil, err
	}
	if p.Protocol == "" {
		return nil, fmt.Errorf("heatmap specs need a protocol")
	}
	proto, err := ParseProtocol(p.Protocol)
	if err != nil {
		return nil, err
	}
	baseline := ""
	var baseProto model.Protocol
	if ps := p.Precision; ps != nil {
		if err := ps.Validate(); err != nil {
			return nil, err
		}
		if ps.Baseline != "" {
			if g.output != OutputSim {
				return nil, fmt.Errorf("precision baseline requires output %q", OutputSim)
			}
			if !p.ShareTraces {
				return nil, fmt.Errorf("precision baseline requires share_traces: paired differences need identical failure realizations")
			}
			if baseProto, err = ParseProtocol(ps.Baseline); err != nil {
				return nil, err
			}
			if ps.Baseline == p.Protocol {
				return nil, fmt.Errorf("precision baseline %q must differ from the protocol under study", ps.Baseline)
			}
			baseline = ps.Baseline
		}
	}
	plat, err := fixedPlatform(p.Platform, p.PlatformOverrides)
	if err != nil {
		return nil, err
	}
	if err := g.axes(s.Kind, p.MTBFMinutes, p.Alphas, sweep.Linspace(60, 240, 19), sweep.Linspace(0, 1, 21)); err != nil {
		return nil, err
	}
	seed, reps := s.seedReps(c)
	opts := s.Options.model()
	dist := distOrExp(p.Distribution)
	// The baseline grid keeps per-replica waste vectors so the assembler can
	// compute paired-difference CIs; KeepReplicas is forced on both grids.
	keepReplicas := baseline != ""
	cells, err := g.cells(s.Kind, keepReplicas, func(sim, isBaseline bool, row, col int) CellSpec {
		params := plat.Params
		params.Alpha = g.ys[row]
		params.Mu = g.xs[col] * model.Minute
		cell := CellSpec{Op: OpModel, Protocol: p.Protocol, Params: &params, Options: opts}
		if !sim {
			return cell
		}
		protoNum := proto
		cell.Op, cell.Epochs, cell.Reps, cell.Dist = OpSim, 1, reps, dist
		if isBaseline {
			cell.Protocol, protoNum = baseline, baseProto
		}
		// With share_traces the protocol stays out of the seed path, so
		// same-seed specs over the same grid observe the same failure
		// realizations per point.
		if p.ShareTraces {
			cell.Seed = rng.At(seed, uint64(row), uint64(col))
		} else {
			cell.Seed = rng.At(seed, uint64(protoNum), uint64(row), uint64(col))
		}
		if p.Precision != nil {
			cell.Precision = p.Precision.cell(keepReplicas)
		}
		return cell
	})
	if err != nil {
		return nil, err
	}
	title := g.title(s, [3]string{
		"Waste of %[1]v: Model (%[2]s)",
		"Waste of %[1]v: Simulation (%[3]d runs/cell)",
		"%[1]v: Difference WASTE_simul - WASTE_model",
	}, proto, plat.Desc, reps)

	assemble := func(results []CellResult) ([]Artifact, error) {
		arts := []Artifact{g.heatmap(s.Name, title, results, func(r CellResult) float64 { return float64(r.Model.Waste) })}
		if p.Precision == nil {
			return arts, nil
		}
		// CI columns are opt-in: they appear only on the _precision table a
		// precision block requests, so existing artifacts stay byte-stable.
		rows, cols := len(g.ys), len(g.xs)
		simOff := 0
		if g.output == OutputDiff {
			simOff = rows * cols
		}
		columns := []string{"mtbf_min", "alpha", "waste", "ci95", "runs", "reps_cap", "stopped", "cv_ratio"}
		if baseline != "" {
			columns = append(columns, baseline+" waste", "diff", "diff_ci95")
		}
		t := &plot.Table{Title: "Adaptive precision: " + title, Columns: columns}
		for i := 0; i < rows*cols; i++ {
			res := results[simOff+i].Sim
			cells := []string{
				fmt.Sprintf("%g", g.xs[i%cols]),
				fmt.Sprintf("%g", g.ys[i/cols]),
				fmt.Sprintf("%.4f", float64(res.WasteMean)),
				fmt.Sprintf("%.4f", float64(res.WasteCI95)),
				fmt.Sprintf("%d", res.Runs),
				fmt.Sprintf("%d", res.RepsCap),
				fmt.Sprintf("%v", res.Stopped),
				fmt.Sprintf("%.3f", float64(res.CVVarianceRatio)),
			}
			if baseline != "" {
				base := results[simOff+rows*cols+i].Sim
				iv, err := stats.PairedDifference(jsonFloats(res.Replicas), jsonFloats(base.Replicas), 0.05)
				if err != nil {
					return nil, fmt.Errorf("paired difference at cell %d: %w", i, err)
				}
				cells = append(cells,
					fmt.Sprintf("%.4f", float64(base.WasteMean)),
					fmt.Sprintf("%.4f", iv.Mean),
					fmt.Sprintf("%.4f", iv.Half))
			}
			t.AddRow(cells...)
		}
		arts = append(arts, Artifact{Name: s.Name + "_precision", Table: t})
		return arts, nil
	}
	artifacts := []string{s.Name}
	if p.Precision != nil {
		artifacts = append(artifacts, s.Name+"_precision")
	}
	return &expansion{spec: s, artifacts: artifacts, cells: cells, assemble: assemble}, nil
}

// jsonFloats converts a stored per-replica vector back to raw floats for
// the paired-difference estimator.
func jsonFloats(v []JSONFloat) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// resolveSeries turns a SeriesSpec into its study and name.
func resolveSeries(sp SeriesSpec) (model.WeakScaling, string, error) {
	plat, err := LookupScalingPlatform(sp.Platform)
	if err != nil {
		return model.WeakScaling{}, "", err
	}
	w, err := sp.Overrides.apply(plat.Scaling)
	if err != nil {
		return model.WeakScaling{}, "", err
	}
	w.AggregateEpochs = valueOr(sp.AggregateEpochs, w.AggregateEpochs)
	proto, err := ParseProtocol(sp.Protocol)
	if err != nil {
		return model.WeakScaling{}, "", err
	}
	return w, cmp.Or(sp.Name, proto.String()), nil
}

// ScalingParams are the fields of a scaling spec: named protocol series
// over a node-count axis.
type ScalingParams struct {
	// Nodes is the node-count axis (default preset "paper-nodes": 1k..1M,
	// ~8 points per decade).
	Nodes *Axis `json:"nodes,omitempty"`
	// Series lists the chart series.
	Series []SeriesSpec `json:"series,omitempty"`
}

func expandScaling(s *Spec, p *ScalingParams, _ *Campaign) (*expansion, error) {
	if len(p.Series) == 0 {
		return nil, fmt.Errorf("scaling specs need at least one series")
	}
	nodes, err := resolveNodes(p.Nodes, model.DefaultNodeCounts())
	if err != nil {
		return nil, err
	}
	if err := checkCells(s.Kind, len(nodes)*len(p.Series)); err != nil {
		return nil, err
	}
	opts := s.Options.model()
	names := make([]string, 0, len(p.Series))
	cells := make([]CellSpec, 0, len(nodes)*len(p.Series))
	for _, sp := range p.Series {
		w, name, err := resolveSeries(sp)
		if err != nil {
			return nil, err
		}
		names = append(names, name)
		for _, n := range nodes {
			study := w
			cells = append(cells, CellSpec{
				Op: OpScaling, Protocol: sp.Protocol, Scaling: &study, Nodes: n, Options: opts,
			})
		}
	}
	title := cmp.Or(s.Title, s.Name)
	assemble := func(results []CellResult) ([]Artifact, error) {
		waste := &plot.LineChart{
			Title: title + " - waste", XLabel: "Nodes", YLabel: "Waste", Xs: nodes, LogX: true,
		}
		faults := &plot.LineChart{
			Title: title + " - expected faults", XLabel: "Nodes", YLabel: "# Faults", Xs: nodes, LogX: true,
		}
		for si, name := range names {
			w := make([]float64, len(nodes))
			f := make([]float64, len(nodes))
			for ni := range nodes {
				res := results[si*len(nodes)+ni].Model
				w[ni] = float64(res.Waste)
				if math.IsInf(float64(res.ExpectedFaults), 1) {
					f[ni] = math.NaN() // infeasible: no finite fault count
				} else {
					f[ni] = float64(res.ExpectedFaults)
				}
			}
			waste.Series = append(waste.Series, plot.Series{Name: name, Values: w})
			faults.Series = append(faults.Series, plot.Series{Name: name, Values: f})
		}
		return []Artifact{
			{Name: s.Name + "_waste", Chart: waste},
			{Name: s.Name + "_faults", Chart: faults},
		}, nil
	}
	return &expansion{spec: s, artifacts: []string{s.Name + "_waste", s.Name + "_faults"}, cells: cells, assemble: assemble}, nil
}

// PointsParams are the fields of a points spec: labelled weak-scaling
// configurations at fixed node counts.
type PointsParams struct {
	// AtNodes is the default node count of the rows.
	AtNodes *float64 `json:"at_nodes,omitempty"`
	// Rows lists the configurations.
	Rows []PointSpec `json:"rows,omitempty"`
}

func expandPoints(s *Spec, p *PointsParams, _ *Campaign) (*expansion, error) {
	if len(p.Rows) == 0 {
		return nil, fmt.Errorf("points specs need at least one row")
	}
	if err := checkCells(s.Kind, len(p.Rows)); err != nil {
		return nil, err
	}
	var cells []CellSpec
	opts := s.Options.model()
	for _, row := range p.Rows {
		nodes := valueOr(row.Nodes, valueOr(p.AtNodes, 0))
		if nodes <= 0 {
			return nil, fmt.Errorf("row %q needs nodes > 0 (set nodes or at_nodes)", row.Label)
		}
		w, _, err := resolveSeries(SeriesSpec{Platform: row.Platform, Protocol: row.Protocol, Overrides: row.Overrides})
		if err != nil {
			return nil, err
		}
		cells = append(cells, CellSpec{
			Op: OpScaling, Protocol: row.Protocol, Scaling: &w, Nodes: nodes, Options: opts,
		})
	}
	title := cmp.Or(s.Title, s.Name)
	assemble := func(results []CellResult) ([]Artifact, error) {
		t := &plot.Table{
			Title:   title,
			Columns: []string{"configuration", "waste", "expected faults/app"},
		}
		for i, res := range results {
			t.AddRow(p.Rows[i].Label,
				fmt.Sprintf("%.4f", float64(res.Model.Waste)),
				fmt.Sprintf("%.1f", float64(res.Model.ExpectedFaults)))
		}
		return []Artifact{{Name: s.Name, Table: t}}, nil
	}
	return &expansion{spec: s, artifacts: []string{s.Name}, cells: cells, assemble: assemble}, nil
}

// PeriodsParams are the fields of a periods spec: the Eq. (11), Young and
// Daly periods over a checkpoint-cost x MTBF grid.
type PeriodsParams struct {
	// CkptCosts and MTBFs span the grid (seconds; default {1min, 10min} x
	// {1h, 6h, 1d}).
	CkptCosts []float64 `json:"ckpt_costs,omitempty"`
	MTBFs     []float64 `json:"mtbfs,omitempty"`
	// Downtime is the D parameter (seconds, default 60).
	Downtime *float64 `json:"downtime,omitempty"`
}

func expandPeriods(s *Spec, p *PeriodsParams, _ *Campaign) (*expansion, error) {
	costs := p.CkptCosts
	if len(costs) == 0 {
		costs = []float64{model.Minute, 10 * model.Minute}
	}
	mtbfs := p.MTBFs
	if len(mtbfs) == 0 {
		mtbfs = []float64{model.Hour, 6 * model.Hour, model.Day}
	}
	d := valueOr(p.Downtime, model.Minute)
	if d < 0 {
		return nil, fmt.Errorf("downtime must be non-negative")
	}
	if err := checkCells(s.Kind, len(costs)*len(mtbfs)); err != nil {
		return nil, err
	}
	var cells []CellSpec
	for _, cost := range costs {
		for _, mu := range mtbfs {
			// The paper's convention R = C: recovery reloads what was saved.
			cells = append(cells, CellSpec{
				Op: OpPeriods, Probe: &PeriodsProbe{C: cost, Mu: mu, D: d, R: cost},
			})
		}
	}
	title := cmp.Or(s.Title, fmt.Sprintf("Optimal checkpoint periods: Eq.(11) vs Young vs Daly (D=%s, R=C)", fmtDur(d)))
	assemble := func(results []CellResult) ([]Artifact, error) {
		t := &plot.Table{
			Title: title,
			Columns: []string{"C", "MTBF", "P eq11 (s)", "P young (s)", "P daly (s)",
				"waste@eq11", "waste@young", "waste@daly"},
		}
		for i, res := range results {
			cost, mu := costs[i/len(mtbfs)], mtbfs[i%len(mtbfs)]
			r := res.Periods
			if !r.Eq11Feasible {
				t.AddRow(fmtDur(cost), fmtDur(mu), "infeasible", "", "", "", "", "")
				continue
			}
			t.AddRow(fmtDur(cost), fmtDur(mu),
				fmt.Sprintf("%.0f", float64(r.Eq11)),
				fmt.Sprintf("%.0f", float64(r.Young)),
				fmt.Sprintf("%.0f", float64(r.Daly)),
				fmt.Sprintf("%.4f", float64(r.WasteEq11)),
				fmt.Sprintf("%.4f", float64(r.WasteYoung)),
				fmt.Sprintf("%.4f", float64(r.WasteDaly)))
		}
		return []Artifact{{Name: s.Name, Table: t}}, nil
	}
	return &expansion{spec: s, artifacts: []string{s.Name}, cells: cells, assemble: assemble}, nil
}

// Ablation variants.
const (
	VariantEpochs    = "epochs"
	VariantSafeguard = "safeguard"
)

// AblationParams are the fields of an ablation spec: two composite-protocol
// variants over a node axis.
type AblationParams struct {
	// Protocol is the protocol under study (default "abft").
	Protocol string `json:"protocol,omitempty"`
	// Platform names a weak-scaling catalogue platform (default
	// "paper-fig8-const-ckpt"; see ScalingPlatformNames).
	Platform string `json:"platform,omitempty"`
	// Nodes is the node-count axis (default 1k, 10k, 100k, 1M).
	Nodes *Axis `json:"nodes,omitempty"`
	// Variant selects the ablation: "epochs" or "safeguard".
	Variant string `json:"variant,omitempty"`
}

func expandAblation(s *Spec, p *AblationParams, _ *Campaign) (*expansion, error) {
	if p.Variant != VariantEpochs && p.Variant != VariantSafeguard {
		return nil, fmt.Errorf("ablation variant must be %q or %q, got %q", VariantEpochs, VariantSafeguard, p.Variant)
	}
	plat, err := LookupScalingPlatform(cmp.Or(p.Platform, "paper-fig8-const-ckpt"))
	if err != nil {
		return nil, err
	}
	protocol := cmp.Or(p.Protocol, ProtoAbft)
	if _, err := ParseProtocol(protocol); err != nil {
		return nil, err
	}
	nodes, err := resolveNodes(p.Nodes, []float64{1_000, 10_000, 100_000, 1_000_000})
	if err != nil {
		return nil, err
	}
	if err := checkCells(s.Kind, 2*len(nodes)); err != nil {
		return nil, err
	}
	// Each node count evaluates variant a, then variant b.
	a, b := plat.Scaling, plat.Scaling
	optsA, optsB := s.Options.model(), s.Options.model()
	columns := []string{"nodes", "waste per-epoch", "waste aggregated"}
	title := fmt.Sprintf("Ablation: composite waste, per-epoch forced checkpoints vs aggregated epochs (%s)", plat.Desc)
	if p.Variant == VariantEpochs {
		a.AggregateEpochs, b.AggregateEpochs = false, true
	} else {
		optsA.Safeguard, optsB.Safeguard = false, true
		columns = []string{"nodes", "waste no safeguard", "waste safeguard", "ABFT active"}
		title = fmt.Sprintf("Ablation: composite waste with and without the ABFT-activation safeguard (%s)", plat.Desc)
	}
	var cells []CellSpec
	for _, n := range nodes {
		studyA, studyB := a, b
		cells = append(cells,
			CellSpec{Op: OpScaling, Protocol: protocol, Scaling: &studyA, Nodes: n, Options: optsA},
			CellSpec{Op: OpScaling, Protocol: protocol, Scaling: &studyB, Nodes: n, Options: optsB})
	}
	title = cmp.Or(s.Title, title)
	assemble := func(results []CellResult) ([]Artifact, error) {
		t := &plot.Table{Title: title, Columns: columns}
		for i, n := range nodes {
			ra, rb := results[2*i].Model, results[2*i+1].Model
			row := []string{fmt.Sprintf("%.0f", n), fmt.Sprintf("%.4f", float64(ra.Waste)), fmt.Sprintf("%.4f", float64(rb.Waste))}
			if p.Variant == VariantSafeguard {
				row = append(row, fmt.Sprintf("%v", rb.ABFTActive))
			}
			t.AddRow(row...)
		}
		return []Artifact{{Name: s.Name, Table: t}}, nil
	}
	return &expansion{spec: s, artifacts: []string{s.Name}, cells: cells, assemble: assemble}, nil
}

// SensitivityParams are the fields of a sensitivity spec: all three
// protocols simulated under a list of failure processes normalized to one
// MTBF.
type SensitivityParams struct {
	// ShareTraces makes the three protocols of a case observe the same
	// failure realizations (see HeatmapParams.ShareTraces).
	ShareTraces bool `json:"share_traces,omitempty"`
	// Precision switches the simulation cells to adaptive-precision
	// execution (see HeatmapParams.Precision).
	Precision *PrecisionSpec `json:"precision,omitempty"`
	// Platform names a fixed catalogue platform (default "paper-fig7"),
	// which PlatformOverrides tweaks.
	Platform          string          `json:"platform,omitempty"`
	PlatformOverrides *ParamsOverride `json:"platform_overrides,omitempty"`
	// MTBF and Alpha fix the platform point (default 7200 s and 0.8, the
	// paper's Section V slice).
	MTBF  *float64 `json:"mtbf,omitempty"`
	Alpha *float64 `json:"alpha,omitempty"`
	// Label is the first column header of the table (default
	// "distribution").
	Label string `json:"label,omitempty"`
	// Cases lists the failure processes.
	Cases []CaseSpec `json:"cases,omitempty"`
}

func expandSensitivity(s *Spec, p *SensitivityParams, c *Campaign) (*expansion, error) {
	if len(p.Cases) == 0 {
		return nil, fmt.Errorf("sensitivity specs need at least one case")
	}
	if err := checkCells(s.Kind, len(p.Cases)*len(model.Protocols)); err != nil {
		return nil, err
	}
	plat, err := fixedPlatform(p.Platform, p.PlatformOverrides)
	if err != nil {
		return nil, err
	}
	point := plat.Params
	point.Mu = valueOr(p.MTBF, 2*model.Hour)
	point.Alpha = valueOr(p.Alpha, 0.8)
	seed, reps := s.seedReps(c)
	opts := s.Options.model()
	if ps := p.Precision; ps != nil {
		if err := ps.Validate(); err != nil {
			return nil, err
		}
		if ps.Baseline != "" {
			return nil, fmt.Errorf("precision baseline only applies to heatmap specs; sensitivity pairs all protocols automatically under share_traces")
		}
	}
	// Under share_traces every protocol of a case sees the same failure
	// realizations, so the assembler can report paired protocol-difference
	// CIs; keeping the per-replica vectors enables that.
	keepReplicas := p.Precision != nil && p.ShareTraces

	var cells []CellSpec
	for i, cs := range p.Cases {
		if cs.Name == "" {
			return nil, fmt.Errorf("case %d needs a name", i)
		}
		d := DistSpec{Name: cs.Dist, Shape: cs.Shape}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("case %q: %w", cs.Name, err)
		}
		for _, proto := range model.Protocols {
			cellSeed := rng.At(seed, uint64(i), uint64(proto))
			if p.ShareTraces {
				// All three protocols of the case observe the same failure
				// realizations (paired comparison, cohort-replayable).
				cellSeed = rng.At(seed, uint64(i))
			}
			if len(cs.SeedPath) > 0 {
				cellSeed = rng.At(seed, cs.SeedPath...)
			}
			params := point
			cell := CellSpec{
				Op: OpSim, Protocol: ProtocolName(proto), Params: &params, Options: opts,
				Epochs: 1, Reps: reps, Seed: cellSeed, Dist: distOrExp(&d),
			}
			if p.Precision != nil {
				cell.Precision = p.Precision.cell(keepReplicas)
			}
			cells = append(cells, cell)
		}
	}
	label := cmp.Or(p.Label, "distribution")
	title := cmp.Or(s.Title, fmt.Sprintf("Sensitivity: simulated waste vs failure process at equal MTBF (mu=%s, alpha=%g)",
		fmtDur(point.Mu), point.Alpha))
	nProto := len(model.Protocols)
	assemble := func(results []CellResult) ([]Artifact, error) {
		t := &plot.Table{
			Title:   title,
			Columns: []string{label, "pure waste", "bi waste", "composite waste"},
		}
		for i, cs := range p.Cases {
			row := []string{cs.Name}
			for j := range model.Protocols {
				row = append(row, fmt.Sprintf("%.4f", float64(results[i*nProto+j].Sim.WasteMean)))
			}
			t.AddRow(row...)
		}
		arts := []Artifact{{Name: s.Name, Table: t}}
		if p.Precision == nil {
			return arts, nil
		}
		pt := &plot.Table{
			Title:   "Adaptive precision: " + title,
			Columns: []string{label, "protocol", "waste", "ci95", "runs", "reps_cap", "stopped", "cv_ratio"},
		}
		for i, cs := range p.Cases {
			for j, proto := range model.Protocols {
				res := results[i*nProto+j].Sim
				pt.AddRow(cs.Name, ProtocolName(proto),
					fmt.Sprintf("%.4f", float64(res.WasteMean)),
					fmt.Sprintf("%.4f", float64(res.WasteCI95)),
					fmt.Sprintf("%d", res.Runs),
					fmt.Sprintf("%d", res.RepsCap),
					fmt.Sprintf("%v", res.Stopped),
					fmt.Sprintf("%.3f", float64(res.CVVarianceRatio)))
			}
		}
		arts = append(arts, Artifact{Name: s.Name + "_precision", Table: pt})
		if !keepReplicas {
			return arts, nil
		}
		// Protocols of a case share failure traces, so replica r of protocol
		// A and replica r of protocol B saw the same arrivals: their waste
		// difference cancels the trace noise, and the paired CI is far
		// narrower than the two marginal CIs suggest.
		dt := &plot.Table{
			Title:   "Paired protocol differences (shared traces): " + title,
			Columns: []string{label, "pair", "diff", "diff_ci95", "pairs"},
		}
		for i, cs := range p.Cases {
			for ai := range model.Protocols {
				for bi := ai + 1; bi < nProto; bi++ {
					a, b := results[i*nProto+ai].Sim, results[i*nProto+bi].Sim
					iv, err := stats.PairedDifference(jsonFloats(a.Replicas), jsonFloats(b.Replicas), 0.05)
					if err != nil {
						return nil, fmt.Errorf("paired difference for case %q: %w", cs.Name, err)
					}
					dt.AddRow(cs.Name,
						fmt.Sprintf("%s-%s", ProtocolName(model.Protocols[ai]), ProtocolName(model.Protocols[bi])),
						fmt.Sprintf("%.4f", iv.Mean),
						fmt.Sprintf("%.4f", iv.Half),
						fmt.Sprintf("%d", iv.N))
				}
			}
		}
		arts = append(arts, Artifact{Name: s.Name + "_pairs", Table: dt})
		return arts, nil
	}
	artifacts := []string{s.Name}
	if p.Precision != nil {
		artifacts = append(artifacts, s.Name+"_precision")
		if keepReplicas {
			artifacts = append(artifacts, s.Name+"_pairs")
		}
	}
	return &expansion{spec: s, artifacts: artifacts, cells: cells, assemble: assemble}, nil
}

// SilentHeatmapParams are the fields of a silent_heatmap spec: the
// silent-error model over an MTBE x verification-cost grid.
type SilentHeatmapParams struct {
	// Platform names a fixed catalogue platform (default "paper-fig7")
	// supplying the work volume and the checkpoint/restore costs, which
	// PlatformOverrides tweaks.
	Platform          string          `json:"platform,omitempty"`
	PlatformOverrides *ParamsOverride `json:"platform_overrides,omitempty"`
	// Output selects the variant: "model" (default), "sim" or "diff".
	Output string `json:"output,omitempty"`
	// Distribution selects the silent-error law for simulation cells
	// (default exponential).
	Distribution *DistSpec `json:"distribution,omitempty"`
	// Render bounds the ASCII color scale of the rendering.
	Render *RenderSpec `json:"render,omitempty"`
	// Recovery selects the recovery mode: "backward" (rollback to the last
	// verified checkpoint, default) or "forward" (ABFT-style in-place
	// correction).
	Recovery string `json:"recovery,omitempty"`
	// MTBEMinutes is the X axis: mean time between silent errors, in
	// minutes (default 60..240, 19 points).
	MTBEMinutes *Axis `json:"mtbe_minutes,omitempty"`
	// VerifyCosts is the Y axis: the cost of one verification in seconds
	// (default 30..600, 20 points).
	VerifyCosts *Axis `json:"verify_costs,omitempty"`
	// Silent tweaks the remaining silent-error parameters; platform fields
	// supply the defaults.
	Silent *SilentSpec `json:"silent,omitempty"`
}

// expandSilentHeatmap sweeps the silent-error model over an MTBE (minutes)
// x verification-cost (seconds) grid: one recovery mode, one platform
// supplying the work volume and checkpoint/restore costs, mirroring the
// fail-stop heatmap kind.
func expandSilentHeatmap(s *Spec, p *SilentHeatmapParams, c *Campaign) (*expansion, error) {
	g := &surface{
		xLabel: "MTBE silent errors (minutes)",
		yLabel: "Verification cost (seconds)",
		render: p.Render,
	}
	var err error
	if g.output, err = s.parseOutput(p.Output, true, p.Distribution); err != nil {
		return nil, err
	}
	recovery := cmp.Or(p.Recovery, model.SilentBackward.String())
	mode, err := model.ParseSilentRecovery(recovery)
	if err != nil {
		return nil, err
	}
	plat, err := fixedPlatform(p.Platform, p.PlatformOverrides)
	if err != nil {
		return nil, err
	}
	if err := g.axes(s.Kind, p.MTBEMinutes, p.VerifyCosts, sweep.Linspace(60, 240, 19), sweep.Linspace(30, 600, 20)); err != nil {
		return nil, err
	}
	// The platform supplies the work volume and the checkpoint/restore
	// costs; the silent block overrides them and the silent-only knobs.
	base := model.SilentParams{W: plat.Params.T0, C: plat.Params.C, R: plat.Params.R, F: 30, Detect: 10}
	if sp := p.Silent; sp != nil {
		base.W, base.C, base.R = valueOr(sp.Work, base.W), valueOr(sp.Ckpt, base.C), valueOr(sp.Restore, base.R)
		base.F, base.Detect, base.Period = valueOr(sp.Correct, base.F), valueOr(sp.Detect, base.Detect), valueOr(sp.Period, base.Period)
	}
	seed, reps := s.seedReps(c)
	dist := distOrExp(p.Distribution)
	cells, err := g.cells(s.Kind, false, func(sim, _ bool, row, col int) CellSpec {
		params := base
		params.V = g.ys[row]
		params.MuSilent = g.xs[col] * model.Minute
		cell := CellSpec{Op: OpSilentModel, Silent: &SilentCell{Params: params, Recovery: recovery}}
		if sim {
			cell.Op, cell.Reps, cell.Seed, cell.Dist = OpSilentSim, reps, rng.At(seed, uint64(row), uint64(col)), dist
		}
		return cell
	})
	if err != nil {
		return nil, err
	}
	title := g.title(s, [3]string{
		"Silent-error waste, %[1]s recovery: Model (%[2]s)",
		"Silent-error waste, %[1]s recovery: Simulation (%[3]d runs/cell)",
		"Silent-error waste, %[1]s recovery: Difference WASTE_simul - WASTE_model",
	}, mode, plat.Desc, reps)
	assemble := func(results []CellResult) ([]Artifact, error) {
		return []Artifact{g.heatmap(s.Name, title, results, func(r CellResult) float64 { return float64(r.SilentModel.Waste) })}, nil
	}
	return &expansion{spec: s, artifacts: []string{s.Name}, cells: cells, assemble: assemble}, nil
}

// MultiLevelScalingParams are the fields of a multilevel_scaling spec:
// two-level checkpointing configurations over a node-count axis.
type MultiLevelScalingParams struct {
	// Output selects the chart: "model" (default) or "sim".
	Output string `json:"output,omitempty"`
	// Distribution selects the failure law for simulation cells (default
	// exponential).
	Distribution *DistSpec `json:"distribution,omitempty"`
	// Nodes is the node-count axis (default preset "paper-nodes").
	Nodes *Axis `json:"nodes,omitempty"`
	// MLSeries lists the configurations.
	MLSeries []MLSeriesSpec `json:"ml_series,omitempty"`
}

// expandMultiLevelScaling sweeps two-level checkpointing configurations over
// a node axis: series i at n nodes runs with platform MTBF
// mtbf_at_base * base_nodes / n (the paper's mu = mu_ind / N relation). Each
// point always evaluates the model — its optimal (period, K) schedule feeds
// the schedule table — and output "sim" additionally Monte-Carlo campaigns
// that resolved schedule, so the chart reports simulated waste with the
// model's schedule baked into each cell spec.
func expandMultiLevelScaling(s *Spec, p *MultiLevelScalingParams, c *Campaign) (*expansion, error) {
	output, err := s.parseOutput(p.Output, false, p.Distribution)
	if err != nil {
		return nil, err
	}
	if len(p.MLSeries) == 0 {
		return nil, fmt.Errorf("multilevel_scaling specs need at least one ml_series entry")
	}
	nodes, err := resolveNodes(p.Nodes, model.DefaultNodeCounts())
	if err != nil {
		return nil, err
	}
	budget := len(nodes) * len(p.MLSeries)
	if output == OutputSim {
		budget *= 2
	}
	if err := checkCells(s.Kind, budget); err != nil {
		return nil, err
	}
	seed, reps := s.seedReps(c)
	dist := distOrExp(p.Distribution)

	// points holds each series' per-node params, schedule unresolved.
	points := make([][]model.MultiLevelParams, len(p.MLSeries))
	var cells []CellSpec
	for i, sp := range p.MLSeries {
		if sp.Name == "" {
			return nil, fmt.Errorf("ml_series entry %d needs a name", i)
		}
		mtbfAtBase := valueOr(sp.MTBFAtBase, 0)
		if mtbfAtBase <= 0 {
			return nil, fmt.Errorf("ml_series %q needs mtbf_at_base > 0", sp.Name)
		}
		baseNodes := valueOr(sp.BaseNodes, 1)
		if baseNodes <= 0 {
			return nil, fmt.Errorf("ml_series %q needs base_nodes > 0", sp.Name)
		}
		for _, n := range nodes {
			if n <= 0 {
				return nil, fmt.Errorf("node counts must be positive (got %g)", n)
			}
			mp := model.MultiLevelParams{
				W: valueOr(sp.Work, model.Week), Mu: mtbfAtBase * baseNodes / n, D: valueOr(sp.Downtime, model.Minute),
				C1: sp.C1, R1: sp.R1, C2: sp.C2, R2: sp.R2,
				Coverage: sp.Coverage, Period: sp.Period, K: sp.K,
			}
			points[i] = append(points[i], mp)
			cells = append(cells, CellSpec{Op: OpMLModel, MultiLevel: &mp})
		}
	}
	if output == OutputSim {
		for si, series := range points {
			for ni, mp := range series {
				// Bake the model-resolved schedule into the sim cell so its
				// spec (and cache key) fully describes the simulated run.
				r := model.EvaluateMultiLevel(mp)
				mp.Period, mp.K = r.Period, r.K
				cells = append(cells, CellSpec{
					Op: OpMLSim, MultiLevel: &mp,
					Reps: reps, Seed: rng.At(seed, uint64(si), uint64(ni)), Dist: dist,
				})
			}
		}
	}

	title := cmp.Or(s.Title, s.Name)
	assemble := func(results []CellResult) ([]Artifact, error) {
		waste := &plot.LineChart{
			Title: title + " - waste", XLabel: "Nodes", YLabel: "Waste", Xs: nodes, LogX: true,
		}
		t := &plot.Table{
			Title:   "Two-level schedules: " + title,
			Columns: []string{"series", "nodes", "mtbf", "period (s)", "K", "feasible", "model waste"},
		}
		simOff := len(points) * len(nodes)
		for si, sp := range p.MLSeries {
			w := make([]float64, len(nodes))
			for ni, n := range nodes {
				res := results[si*len(nodes)+ni].MLModel
				w[ni] = float64(res.Waste)
				if output == OutputSim {
					w[ni] = float64(results[simOff+si*len(nodes)+ni].Sim.WasteMean)
				}
				t.AddRow(sp.Name,
					fmt.Sprintf("%.0f", n),
					fmtDur(points[si][ni].Mu),
					fmt.Sprintf("%.0f", float64(res.Period)),
					fmt.Sprintf("%d", res.K),
					fmt.Sprintf("%v", res.Feasible),
					fmt.Sprintf("%.4f", float64(res.Waste)))
			}
			waste.Series = append(waste.Series, plot.Series{Name: sp.Name, Values: w})
		}
		return []Artifact{
			{Name: s.Name + "_waste", Chart: waste},
			{Name: s.Name + "_schedule", Table: t},
		}, nil
	}
	return &expansion{
		spec:      s,
		artifacts: []string{s.Name + "_waste", s.Name + "_schedule"},
		cells:     cells,
		assemble:  assemble,
	}, nil
}

// fmtDur renders a duration in seconds with the largest fitting unit, as
// used in table cells and default titles ("2h", "10min", "1d").
func fmtDur(seconds float64) string {
	switch {
	case seconds >= model.Day:
		return fmt.Sprintf("%.4gd", seconds/model.Day)
	case seconds >= model.Hour:
		return fmt.Sprintf("%.4gh", seconds/model.Hour)
	case seconds >= model.Minute:
		return fmt.Sprintf("%.4gmin", seconds/model.Minute)
	default:
		return fmt.Sprintf("%.4gs", seconds)
	}
}
