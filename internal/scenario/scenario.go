// Package scenario turns the paper's evaluation into declarative, named,
// cacheable artifacts. A Campaign is a JSON document listing scenario Specs;
// every Spec expands into a grid of content-addressed cells (one analytic
// model evaluation or one Monte-Carlo simulation campaign each), the Runner
// executes the cells on a worker pool through the existing model/sim/sweep
// layers — reusing any cell already present in the on-disk cache — and
// assembles the results into plot.Heatmap / plot.LineChart / plot.Table
// artifacts.
//
// All durations in scenario files are in seconds unless a field name says
// otherwise (MTBFMinutes); waste values are fractions of wall-clock time in
// [0, 1]; alpha and rho are fractions of work and memory respectively.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/sweep"
)

// Spec kinds. Each kind expands into cells differently and assembles a
// different artifact shape; see the package documentation of each expand
// method in expand.go.
const (
	// KindHeatmap sweeps one protocol over an MTBF x alpha grid on a fixed
	// platform and emits a heatmap of model waste, simulated waste, or their
	// difference (the paper's Figure 7 panels).
	KindHeatmap = "heatmap"
	// KindScaling sweeps named protocol series over a node-count axis on
	// weak-scaling platforms and emits a waste chart and an expected-faults
	// chart (Figures 8-10).
	KindScaling = "scaling"
	// KindPoints evaluates a list of labelled weak-scaling configurations at
	// fixed node counts and emits a table of waste and expected faults (the
	// Figure 10 parity check).
	KindPoints = "points"
	// KindPeriods compares the Eq. (11), Young and Daly checkpoint-period
	// formulas over a checkpoint-cost x MTBF grid.
	KindPeriods = "periods"
	// KindAblation contrasts two composite-protocol variants over a node
	// axis: per-epoch vs aggregated forced checkpoints ("epochs"), or the
	// Section III-B safeguard off vs on ("safeguard").
	KindAblation = "ablation"
	// KindSensitivity simulates all three protocols under a list of failure
	// distributions normalized to one MTBF (the Section V realism check).
	KindSensitivity = "sensitivity"
	// KindSilentHeatmap sweeps the silent-error model (verified patterns
	// with backward or forward recovery) over an MTBE x verification-cost
	// grid and emits a heatmap of model waste, simulated waste, or their
	// difference.
	KindSilentHeatmap = "silent_heatmap"
	// KindMultiLevelScaling sweeps named two-level checkpointing
	// configurations over a node-count axis (platform MTBF shrinking as
	// mtbf_at_base * base_nodes / n) and emits a waste chart plus a table of
	// the model-optimal (period, K) schedules.
	KindMultiLevelScaling = "multilevel_scaling"
)

// Protocol names accepted by scenario files.
const (
	ProtoPure = "pure"
	ProtoBi   = "bi"
	ProtoAbft = "abft"
)

// protocolNames are the scenario-file names of the model protocols, indexed
// by protocol.
var protocolNames = [...]string{
	model.PurePeriodicCkpt: ProtoPure,
	model.BiPeriodicCkpt:   ProtoBi,
	model.AbftPeriodicCkpt: ProtoAbft,
}

// ParseProtocol maps a scenario-file protocol name ("pure", "bi", "abft") to
// the model constant.
func ParseProtocol(s string) (model.Protocol, error) {
	for p, name := range protocolNames {
		if name == s {
			return model.Protocol(p), nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown protocol %q (want pure, bi or abft)", s)
}

// ProtocolName is the inverse of ParseProtocol: the scenario-file name of
// a model protocol. It panics on an unknown protocol, so a future protocol
// addition fails loudly instead of producing mislabeled cells.
func ProtocolName(p model.Protocol) string {
	if p < 0 || int(p) >= len(protocolNames) {
		panic(fmt.Sprintf("scenario: unknown protocol %v", p))
	}
	return protocolNames[p]
}

// Campaign is the top-level scenario file: a named list of scenarios with
// shared defaults.
type Campaign struct {
	// Name identifies the campaign in manifests and logs.
	Name string `json:"name"`
	// Notes is free-form documentation; the engine ignores it.
	Notes string `json:"notes,omitempty"`
	// Seed is the default random seed for simulation-backed scenarios that
	// do not set their own (default 42).
	Seed *uint64 `json:"seed,omitempty"`
	// Reps is the default number of Monte-Carlo repetitions per simulation
	// cell (default 100; the paper uses 1000).
	Reps int `json:"reps,omitempty"`
	// Scenarios lists the artifacts to produce, in output order.
	Scenarios []*Spec `json:"scenarios"`
}

// DefaultSeed and DefaultReps apply when a campaign leaves them unset.
const (
	DefaultSeed = 42
	DefaultReps = 100
)

// Validate checks the campaign and every scenario in it, without executing
// anything. It reports the first problem found.
func (c *Campaign) Validate() error {
	_, err := c.expandAll(1)
	return err
}

// expandAll expands every scenario against the campaign defaults, checking
// scenario-name and artifact-name uniqueness across the whole campaign (a
// scaling scenario named "x" produces artifacts "x_waste" and "x_faults",
// which must not collide with another scenario's outputs). The expansions
// are independent and run on up to workers goroutines (see claim); the
// checks then walk the campaign in order, so the error reported is the
// first failing scenario's for any worker count.
func (c *Campaign) expandAll(workers int) ([]*expansion, error) {
	if len(c.Scenarios) == 0 {
		return nil, fmt.Errorf("scenario: campaign %q has no scenarios", c.Name)
	}
	if c.Reps < 0 {
		return nil, fmt.Errorf("scenario: campaign %q: reps must be non-negative", c.Name)
	}
	out := make([]*expansion, len(c.Scenarios))
	errs := make([]error, len(c.Scenarios))
	claim(len(c.Scenarios), workers, func(i int) {
		if s := c.Scenarios[i]; s != nil && s.Name != "" {
			out[i], errs[i] = s.expand(c)
		}
	})
	seen := make(map[string]bool, len(c.Scenarios))
	artifactOwner := map[string]string{}
	for i, s := range c.Scenarios {
		if s == nil {
			return nil, fmt.Errorf("scenario: campaign %q: scenario %d is null", c.Name, i)
		}
		if s.Name == "" {
			return nil, fmt.Errorf("scenario: campaign %q: scenario %d has no name", c.Name, i)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("scenario: campaign %q: duplicate scenario name %q", c.Name, s.Name)
		}
		seen[s.Name] = true
		if errs[i] != nil {
			return nil, errs[i]
		}
		for _, name := range out[i].artifacts {
			if owner, ok := artifactOwner[name]; ok {
				return nil, fmt.Errorf("scenario: campaign %q: scenarios %q and %q both produce artifact %q",
					c.Name, owner, s.Name, name)
			}
			artifactOwner[name] = s.Name
		}
	}
	return out, nil
}

// Load parses and validates a campaign from JSON. Unknown fields are
// rejected, so typos fail loudly instead of silently running defaults.
func Load(r io.Reader) (*Campaign, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Campaign
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("scenario: parse campaign: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadFile reads and validates a campaign file.
func LoadFile(path string) (*Campaign, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Spec declares one scenario. The fields here apply to every kind; Params
// holds the kind's own fields (a *HeatmapParams for KindHeatmap, and so on:
// see the kind registry in kinds.go). In a campaign file both sets sit side
// by side in one JSON object, and a field of another kind is rejected.
type Spec struct {
	// Name is the artifact base name (output files derive from it).
	Name string `json:"name"`
	// Kind selects the scenario shape (see the Kind* constants).
	Kind string `json:"kind"`
	// Title overrides the artifact title; each kind has a sensible default.
	Title string `json:"title,omitempty"`
	// Notes is free-form documentation; the engine ignores it.
	Notes string `json:"notes,omitempty"`
	// Options apply to every model evaluation and simulation of the spec.
	Options OptionsSpec `json:"options,omitzero"`
	// Seed overrides the campaign seed (simulation-backed kinds only).
	Seed *uint64 `json:"seed,omitempty"`
	// Reps overrides the campaign repetition count (simulation-backed kinds
	// only).
	Reps int `json:"reps,omitempty"`
	// Params points to the kind's params struct; nil means the kind's zero
	// params.
	Params any `json:"-"`
}

// OptionsSpec is the JSON form of model.Options.
type OptionsSpec struct {
	// Safeguard enables the Section III-B ABFT-activation rule.
	Safeguard bool `json:"safeguard,omitempty"`
	// FixedPeriodG and FixedPeriodL override the optimal checkpoint periods
	// (seconds; 0 keeps the Eq. (11) optimum).
	FixedPeriodG float64 `json:"fixed_period_g,omitempty"`
	FixedPeriodL float64 `json:"fixed_period_l,omitempty"`
}

func (o OptionsSpec) model() model.Options {
	return model.Options{Safeguard: o.Safeguard, FixedPeriodG: o.FixedPeriodG, FixedPeriodL: o.FixedPeriodL}
}

// Validate rejects negative period overrides.
func (o OptionsSpec) Validate() error {
	if o.FixedPeriodG < 0 || o.FixedPeriodL < 0 {
		return fmt.Errorf("scenario: fixed periods must be non-negative")
	}
	return nil
}

// PrecisionSpec is the JSON form of a spec-level adaptive-precision block.
// It resolves to a CellPrecision on every simulation cell of the spec, and
// optionally names a baseline protocol for paired-difference reporting.
type PrecisionSpec struct {
	// RelCI stops a cell once its waste CI half-width falls to
	// RelCI * |estimate|.
	RelCI float64 `json:"rel_ci,omitempty"`
	// AbsCI stops a cell once the half-width falls to AbsCI (absolute
	// waste fraction). At least one of RelCI/AbsCI must be positive.
	AbsCI float64 `json:"abs_ci,omitempty"`
	// Batch is the first batch size (doubles per look; 0 uses the
	// simulator default).
	Batch int `json:"batch,omitempty"`
	// NoControlVariate disables the model-prediction control variate.
	NoControlVariate bool `json:"no_cv,omitempty"`
	// Baseline names a second protocol simulated on the same grid with the
	// same seeds, reported as paired waste differences with CIs in the
	// <name>_precision table. Heatmap kind with output "sim" only; requires
	// share_traces (paired differences need identical failure traces).
	Baseline string `json:"baseline,omitempty"`
}

// Validate checks the block in isolation; kind-specific rules (Baseline,
// share_traces) are enforced during expansion.
func (p *PrecisionSpec) Validate() error {
	if p == nil {
		return nil
	}
	return (&CellPrecision{RelCI: p.RelCI, AbsCI: p.AbsCI, Batch: p.Batch}).Validate()
}

// cell resolves the block to a per-cell precision setting.
func (p *PrecisionSpec) cell(keepReplicas bool) *CellPrecision {
	return &CellPrecision{
		RelCI:            p.RelCI,
		AbsCI:            p.AbsCI,
		Batch:            p.Batch,
		NoControlVariate: p.NoControlVariate,
		KeepReplicas:     keepReplicas,
	}
}

// RenderSpec bounds the color scale of ASCII heatmap renderings.
type RenderSpec struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// SeriesSpec is one line of a scaling chart.
type SeriesSpec struct {
	// Name labels the series (default: the protocol's display name).
	Name string `json:"name,omitempty"`
	// Platform names a weak-scaling catalogue platform.
	Platform string `json:"platform"`
	// Protocol is "pure", "bi" or "abft".
	Protocol string `json:"protocol"`
	// AggregateEpochs overrides the platform's epoch accounting for the
	// composite protocol (see model.WeakScaling.AggregateEpochs).
	AggregateEpochs *bool `json:"aggregate_epochs,omitempty"`
	// Overrides tweaks the named platform.
	Overrides *ScalingOverride `json:"overrides,omitempty"`
}

// PointSpec is one labelled row of a points table.
type PointSpec struct {
	// Label is the first table cell.
	Label string `json:"label"`
	// Platform names a weak-scaling catalogue platform.
	Platform string `json:"platform"`
	// Protocol is "pure", "bi" or "abft".
	Protocol string `json:"protocol"`
	// Nodes overrides the spec-level AtNodes for this row.
	Nodes *float64 `json:"nodes,omitempty"`
	// Overrides tweaks the named platform (e.g. a cheaper checkpoint).
	Overrides *ScalingOverride `json:"overrides,omitempty"`
}

// CaseSpec is one failure process of a sensitivity table.
type CaseSpec struct {
	// Name is the first table cell.
	Name string `json:"name"`
	// Dist and Shape select the failure law (see DistSpec).
	Dist  string  `json:"dist"`
	Shape float64 `json:"shape,omitempty"`
	// SeedPath overrides the default seed derivation. When unset, the cell
	// for (case i, protocol p) draws from rng.At(seed, i, p); when set, all
	// protocols of the case share rng.At(seed, path...).
	SeedPath []uint64 `json:"seed_path,omitempty"`
}

// SilentSpec tweaks the silent-error parameters of a silent_heatmap spec
// beyond its two axes; nil pointers keep the defaults. All values are
// seconds.
type SilentSpec struct {
	// Work is the total useful work W (default: the platform's epoch T0).
	Work *float64 `json:"work,omitempty"`
	// Ckpt is the checkpoint cost after a verified pattern (default: the
	// platform's C).
	Ckpt *float64 `json:"ckpt,omitempty"`
	// Restore is the backward-recovery rollback cost (default: the
	// platform's R).
	Restore *float64 `json:"restore,omitempty"`
	// Correct is the forward-recovery in-place correction cost (default 30).
	Correct *float64 `json:"correct,omitempty"`
	// Detect is the detection latency charged when a verification flags an
	// error (default 10).
	Detect *float64 `json:"detect,omitempty"`
	// Period fixes the work per verified pattern; 0 or unset uses the
	// mode's first-order optimal period.
	Period *float64 `json:"period,omitempty"`
}

// MLSeriesSpec is one two-level checkpointing configuration of a
// multilevel_scaling spec: level-1/level-2 costs plus the weak-scaling MTBF
// law mu(n) = mtbf_at_base * base_nodes / n. All durations are seconds.
type MLSeriesSpec struct {
	// Name labels the series in the chart and schedule table.
	Name string `json:"name"`
	// Work is the total useful work W (default one week).
	Work *float64 `json:"work,omitempty"`
	// MTBFAtBase is the platform MTBF at BaseNodes nodes (required;
	// typically a per-node MTBF budget in the paper's mu = mu_ind / N
	// relation).
	MTBFAtBase *float64 `json:"mtbf_at_base,omitempty"`
	// BaseNodes anchors the MTBF law (default 1).
	BaseNodes *float64 `json:"base_nodes,omitempty"`
	// Downtime is the downtime before any recovery (default 60).
	Downtime *float64 `json:"downtime,omitempty"`
	// C1 and R1 are the fast (in-memory) checkpoint and restore costs.
	C1 float64 `json:"c1"`
	R1 float64 `json:"r1"`
	// C2 and R2 are the slow (disk) checkpoint and restore costs.
	C2 float64 `json:"c2"`
	R2 float64 `json:"r2"`
	// Coverage is the fraction of failures recoverable from level 1.
	Coverage float64 `json:"coverage"`
	// Period and K fix the schedule; 0 lets the model optimize both.
	Period float64 `json:"period,omitempty"`
	K      int     `json:"k,omitempty"`
}

// Axis declares a scan axis: either explicit values, a linear range, or a
// named preset.
type Axis struct {
	// Values lists the points explicitly.
	Values []float64 `json:"values,omitempty"`
	// From, To and Count generate Count evenly spaced points from From to To
	// inclusive.
	From  *float64 `json:"from,omitempty"`
	To    *float64 `json:"to,omitempty"`
	Count int      `json:"count,omitempty"`
	// Preset names a built-in axis: "paper-nodes" is the log-spaced node
	// axis of Figures 8-10 (1k to 1M, ~8 points per decade).
	Preset string `json:"preset,omitempty"`
}

// MaxAxisPoints bounds generated axes so a mistyped (or adversarial)
// count cannot allocate unbounded memory at validation time. The densest
// axis in the paper has 21 points; three orders of magnitude of headroom
// keeps validation fast enough to fuzz.
const MaxAxisPoints = 2_000

// Resolve returns the axis points, or def when the axis is nil.
func (a *Axis) Resolve(def []float64) ([]float64, error) {
	if a == nil {
		return def, nil
	}
	set := 0
	if a.Values != nil {
		set++
	}
	if a.From != nil || a.To != nil || a.Count != 0 {
		set++
	}
	if a.Preset != "" {
		set++
	}
	if set > 1 {
		return nil, fmt.Errorf("scenario: axis must use exactly one of values, from/to/count, preset")
	}
	switch {
	case a.Values != nil:
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("scenario: axis values must be non-empty")
		}
		for _, v := range a.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("scenario: axis values must be finite")
			}
		}
		return a.Values, nil
	case a.Preset == "paper-nodes":
		return model.DefaultNodeCounts(), nil
	case a.Preset != "":
		return nil, fmt.Errorf("scenario: unknown axis preset %q", a.Preset)
	case a.From != nil && a.To != nil && a.Count > 0:
		if a.Count > MaxAxisPoints {
			return nil, fmt.Errorf("scenario: axis count %d exceeds the %d-point limit", a.Count, MaxAxisPoints)
		}
		if math.IsNaN(*a.From) || math.IsInf(*a.From, 0) || math.IsNaN(*a.To) || math.IsInf(*a.To, 0) {
			return nil, fmt.Errorf("scenario: axis range must be finite")
		}
		return sweep.Linspace(*a.From, *a.To, a.Count), nil
	case a.From != nil || a.To != nil || a.Count != 0:
		return nil, fmt.Errorf("scenario: range axis needs from, to and count > 0")
	default:
		return def, nil
	}
}

// DistSpec names a failure inter-arrival distribution for simulation cells.
// Shape is the Weibull/gamma shape k, the log-normal sigma, or the cascade
// burst probability; it is ignored for the exponential law.
type DistSpec struct {
	Name  string  `json:"name"`
	Shape float64 `json:"shape,omitempty"`
}

// Distribution names accepted by DistSpec.
const (
	DistExponential = "exp"
	DistWeibull     = "weibull"
	DistGamma       = "gamma"
	DistLogNormal   = "lognormal"
	DistCascade     = "cascade"
)

// Validate checks the distribution name and that the shape lies within
// the family's bounds (dist.Family; listed in docs/SCENARIOS.md).
func (d DistSpec) Validate() error {
	_, err := d.family()
	return err
}

// family is Validate that also returns the family's constructor, so a
// caller that needs both resolves the family once. The name check comes
// first: dist.Family also takes "exponential", which a campaign may not.
func (d DistSpec) family() (func(mtbf float64) dist.Distribution, error) {
	switch d.Name {
	case DistExponential, DistWeibull, DistGamma, DistLogNormal, DistCascade:
		ctor, err := dist.Family(d.Name, d.Shape)
		if err != nil {
			return nil, fmt.Errorf("scenario: distribution %q: %w", d.Name, err)
		}
		return ctor, nil
	case "":
		return nil, fmt.Errorf("scenario: distribution name is required (exp, weibull, gamma, lognormal or cascade)")
	default:
		return nil, fmt.Errorf("scenario: unknown distribution %q (want exp, weibull, gamma, lognormal or cascade)", d.Name)
	}
}
