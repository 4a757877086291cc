package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/sim"
)

// Cell operations.
const (
	// OpModel evaluates the analytical model on fully resolved parameters.
	OpModel = "model"
	// OpScaling evaluates one protocol of a weak-scaling study at one node
	// count (with the study's epoch-accounting rules).
	OpScaling = "scaling"
	// OpSim runs a Monte-Carlo simulation campaign at one parameter point.
	OpSim = "sim"
	// OpPeriods compares the Eq. (11), Young and Daly checkpoint periods
	// for one (C, mu, D, R) point.
	OpPeriods = "periods"
	// OpSilentModel evaluates the silent-error analytic model (verified
	// patterns with backward or forward recovery) at one parameter point.
	OpSilentModel = "silent_model"
	// OpSilentSim runs a Monte-Carlo silent-error campaign at one point.
	OpSilentSim = "silent_sim"
	// OpMLModel evaluates the two-level checkpointing model at one point.
	OpMLModel = "ml_model"
	// OpMLSim runs a Monte-Carlo two-level checkpointing campaign at one
	// point.
	OpMLSim = "ml_sim"
)

// CellSpec fully determines one evaluation: hashing its canonical JSON
// encoding yields the cache key, so two cells with equal specs always share
// one result. All durations are seconds; Seed is the absolute, already
// derived stream seed.
type CellSpec struct {
	// V versions the cell format; bump it to invalidate old caches.
	V int `json:"v"`
	// Op selects the computation (see the Op* constants).
	Op string `json:"op"`
	// Protocol is "pure", "bi" or "abft" (all ops except periods).
	Protocol string `json:"protocol,omitempty"`
	// Params are the resolved epoch parameters (model and sim ops).
	Params *model.Params `json:"params,omitempty"`
	// Scaling and Nodes identify a weak-scaling evaluation (scaling op).
	Scaling *model.WeakScaling `json:"scaling,omitempty"`
	Nodes   float64            `json:"nodes,omitempty"`
	// Options tune protocol variants (safeguard, fixed periods).
	Options model.Options `json:"options,omitempty"`
	// Epochs, Reps, Seed and Dist configure a simulation campaign (sim op).
	Epochs int       `json:"epochs,omitempty"`
	Reps   int       `json:"reps,omitempty"`
	Seed   uint64    `json:"seed"`
	Dist   *DistSpec `json:"dist,omitempty"`
	// Precision switches a sim cell to adaptive-precision execution: Reps
	// becomes a hard cap and replicas run in batches until the waste CI
	// half-width meets the target. It is part of the canonical encoding —
	// and therefore of the cache key — because an adaptive result (a
	// stopping-time aggregate over a data-dependent replica count) is NOT
	// the fixed-rep result: serving one for the other would silently change
	// golden artifacts. The failure *process* is unchanged, though, so the
	// cohort key (SimProcessKey) deliberately excludes it and adaptive cells
	// replay the same arenas as their fixed-rep twins.
	Precision *CellPrecision `json:"precision,omitempty"`
	// Probe is the period-comparison input (periods op).
	Probe *PeriodsProbe `json:"probe,omitempty"`
	// Silent is the silent-error input (silent_model and silent_sim ops).
	Silent *SilentCell `json:"silent,omitempty"`
	// MultiLevel is the two-level checkpointing input (ml_model and ml_sim
	// ops). For ml_sim cells the expanders bake the model-resolved Period
	// and K in, so the cell spec fully describes the simulated schedule.
	MultiLevel *model.MultiLevelParams `json:"multilevel,omitempty"`
}

// SilentCell is the input of a silent-error cell: the model parameters plus
// the recovery mode under study ("backward" or "forward").
type SilentCell struct {
	Params   model.SilentParams `json:"params"`
	Recovery string             `json:"recovery"`
}

// CellPrecision is the resolved adaptive-precision block of a simulation
// cell (see sim.Precision for the execution semantics). At least one of
// RelCI/AbsCI must be positive.
type CellPrecision struct {
	// RelCI stops the cell once the waste CI half-width falls to
	// RelCI * |estimate|.
	RelCI float64 `json:"rel_ci,omitempty"`
	// AbsCI stops the cell once the half-width falls to AbsCI (absolute
	// waste fraction).
	AbsCI float64 `json:"abs_ci,omitempty"`
	// Batch is the first batch size (doubles per look; 0 uses
	// sim.DefaultAdaptiveBatch).
	Batch int `json:"batch,omitempty"`
	// NoControlVariate disables the model-prediction control variate.
	NoControlVariate bool `json:"no_cv,omitempty"`
	// KeepReplicas stores the per-replica waste vector in the result so
	// paired-difference CIs can be assembled across cells sharing traces.
	KeepReplicas bool `json:"keep_replicas,omitempty"`
}

// Validate checks the precision block (sim cells only).
func (p *CellPrecision) Validate() error {
	if p == nil {
		return nil
	}
	prec := sim.Precision{RelTarget: p.RelCI, AbsTarget: p.AbsCI, Batch: p.Batch}
	if err := prec.Validate(); err != nil {
		return err
	}
	if p.Batch < 0 || p.Batch > MaxSimReps {
		return fmt.Errorf("scenario: precision batch %d must be in [0, %d]", p.Batch, MaxSimReps)
	}
	return nil
}

// cellVersion invalidates cached results when the cell semantics change.
const cellVersion = 1

// MaxSimReps, MaxSimEpochs and MaxSimBudget bound one simulation cell so
// an adversarial (or fuzzed) spec cannot pin a worker for hours: the
// budget is reps x epochs, and the paper's heaviest configuration (1000
// repetitions of 1000 epochs) uses a tenth of it.
const (
	MaxSimReps   = 1_000_000
	MaxSimEpochs = 100_000
	MaxSimBudget = 10_000_000
)

// PeriodsProbe is the input of an OpPeriods cell (all seconds).
type PeriodsProbe struct {
	C  float64 `json:"c"`
	Mu float64 `json:"mu"`
	D  float64 `json:"d"`
	R  float64 `json:"r"`
}

// Canonical returns the canonical JSON encoding of the cell (stable field
// order, shortest float representation).
func (c CellSpec) Canonical() []byte {
	c.V = cellVersion
	b, err := json.Marshal(c)
	if err != nil {
		// Params/Options hold only finite floats by validation; a marshal
		// failure is a programming error.
		panic(fmt.Sprintf("scenario: marshal cell: %v", err))
	}
	return b
}

// Hash returns the hex SHA-256 of the canonical encoding: the cache key.
func (c CellSpec) Hash() string {
	return c.key().hash
}

// cellKey is a cell's cache identity: the canonical encoding and its hex
// SHA-256. Deriving it costs a JSON encode and a hash, so the runner
// derives it once per cell reference and threads it through the cache
// (lookup, entry verification, entry encoding, store key) instead of
// re-deriving it at every layer.
type cellKey struct {
	hash      string
	canonical []byte
}

// key derives the cell's cache identity.
func (c CellSpec) key() cellKey {
	canonical := c.Canonical()
	sum := sha256.Sum256(canonical)
	return cellKey{hash: hex.EncodeToString(sum[:]), canonical: canonical}
}

// JSONFloat is a float64 whose JSON encoding survives the IEEE specials:
// +Inf, -Inf and NaN (which an infeasible protocol legitimately produces)
// are encoded as the strings "+inf", "-inf" and "nan".
type JSONFloat float64

// MarshalJSON encodes specials as strings and finite values as numbers,
// byte-identical to encoding/json's float64 encoding.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-inf"`), nil
	case math.IsNaN(v):
		return []byte(`"nan"`), nil
	default:
		return appendJSONNumber(make([]byte, 0, 24), v), nil
	}
}

// appendJSONNumber appends a finite float64 exactly as encoding/json
// encodes it: shortest round-trip digits, in exponent form outside
// [1e-6, 1e21), with a one-digit negative exponent's leading zero removed.
func appendJSONNumber(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// UnmarshalJSON decodes the encoding of MarshalJSON. The two forms it
// produces are parsed directly: a number literal by strconv.ParseFloat
// (what encoding/json does for a float64) and a special by its exact
// quoted bytes. Anything else — null, escaped strings, numbers out of
// range — goes through encoding/json, keeping its semantics and error
// text.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && (b[0] == '-' || '0' <= b[0] && b[0] <= '9') {
		if v, err := strconv.ParseFloat(string(b), 64); err == nil {
			*f = JSONFloat(v)
			return nil
		}
	}
	if n := len(b); n >= 2 && b[0] == '"' && b[n-1] == '"' {
		if v, ok := jsonFloatSpecial(string(b[1 : n-1])); ok {
			*f = JSONFloat(v)
			return nil
		}
	}
	var v float64
	if err := json.Unmarshal(b, &v); err == nil {
		*f = JSONFloat(v)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, ok := jsonFloatSpecial(s)
	if !ok {
		return fmt.Errorf("scenario: invalid float %q", s)
	}
	*f = JSONFloat(v)
	return nil
}

// jsonFloatSpecial maps the special strings of MarshalJSON to their values.
func jsonFloatSpecial(s string) (float64, bool) {
	switch s {
	case "+inf":
		return math.Inf(1), true
	case "-inf":
		return math.Inf(-1), true
	case "nan":
		return math.NaN(), true
	}
	return 0, false
}

// ModelCellResult mirrors model.Result with JSON-safe floats: times in
// seconds, Waste a fraction of wall-clock time in [0, 1] (1 when
// infeasible), ExpectedFaults a count.
type ModelCellResult struct {
	Feasible       bool      `json:"feasible"`
	TFinal         JSONFloat `json:"tfinal"`
	Waste          JSONFloat `json:"waste"`
	FaultFree      JSONFloat `json:"fault_free"`
	TFinalG        JSONFloat `json:"tfinal_g"`
	TFinalL        JSONFloat `json:"tfinal_l"`
	PeriodG        JSONFloat `json:"period_g"`
	PeriodL        JSONFloat `json:"period_l"`
	ExpectedFaults JSONFloat `json:"expected_faults"`
	ABFTActive     bool      `json:"abft_active"`
}

func newModelCellResult(r model.Result) *ModelCellResult {
	return &ModelCellResult{
		Feasible:       r.Feasible,
		TFinal:         JSONFloat(r.TFinal),
		Waste:          JSONFloat(r.Waste),
		FaultFree:      JSONFloat(r.FaultFree),
		TFinalG:        JSONFloat(r.TFinalG),
		TFinalL:        JSONFloat(r.TFinalL),
		PeriodG:        JSONFloat(r.PeriodG),
		PeriodL:        JSONFloat(r.PeriodL),
		ExpectedFaults: JSONFloat(r.ExpectedFaults),
		ABFTActive:     r.ABFTActive,
	}
}

// SimCellResult summarizes a sim.Aggregate with JSON-safe floats: waste is
// a fraction of wall-clock time in [0, 1], times are mean seconds per run,
// faults a mean count per run.
type SimCellResult struct {
	WasteMean    JSONFloat `json:"waste_mean"`
	WasteStdDev  JSONFloat `json:"waste_stddev"`
	WasteCI95    JSONFloat `json:"waste_ci95"`
	FaultsMean   JSONFloat `json:"faults_mean"`
	TFinalMean   JSONFloat `json:"tfinal_mean"`
	WorkMean     JSONFloat `json:"work_mean"`
	CkptMean     JSONFloat `json:"ckpt_mean"`
	LostMean     JSONFloat `json:"lost_mean"`
	RecoveryMean JSONFloat `json:"recovery_mean"`
	Runs         int       `json:"runs"`
	Truncated    int       `json:"truncated"`

	// Adaptive-precision extensions; all zero (and omitted from JSON) for
	// fixed-rep cells, so cached fixed-rep results decode unchanged. For
	// adaptive cells WasteMean/WasteCI95 above hold the control-variate
	// adjusted estimate and the stopping-look half-width, not the plain
	// sample statistics (WasteStdDev stays the plain per-replica stddev).
	RepsCap  int  `json:"reps_cap,omitempty"`
	Stopped  bool `json:"stopped,omitempty"`
	Looks    int  `json:"looks,omitempty"`
	CVActive bool `json:"cv_active,omitempty"`
	// CVVarianceRatio is residual/plain variance (1 when the control
	// variate is inactive or did not help).
	CVVarianceRatio JSONFloat `json:"cv_variance_ratio,omitempty"`
	// Replicas is the per-replica waste vector, present only when the cell
	// asked for it (precision.keep_replicas) to support paired-difference
	// CIs across cells sharing a failure trace.
	Replicas []JSONFloat `json:"replicas,omitempty"`
}

func newSimCellResult(a sim.Aggregate) *SimCellResult {
	return &SimCellResult{
		WasteMean:    JSONFloat(a.Waste.Mean),
		WasteStdDev:  JSONFloat(a.Waste.StdDev),
		WasteCI95:    JSONFloat(a.Waste.CI95),
		FaultsMean:   JSONFloat(a.Faults.Mean),
		TFinalMean:   JSONFloat(a.TFinal.Mean),
		WorkMean:     JSONFloat(a.Work.Mean),
		CkptMean:     JSONFloat(a.Ckpt.Mean),
		LostMean:     JSONFloat(a.Lost.Mean),
		RecoveryMean: JSONFloat(a.Recovery.Mean),
		Runs:         a.Runs,
		Truncated:    a.Truncated,
	}
}

func newAdaptiveSimCellResult(a sim.AdaptiveAggregate) *SimCellResult {
	r := newSimCellResult(a.Aggregate)
	r.WasteMean = JSONFloat(a.WasteEstimate)
	r.WasteCI95 = JSONFloat(a.WasteHalfWidth)
	r.RepsCap = a.RepsCap
	r.Stopped = a.Stopped
	r.Looks = a.Looks
	r.CVActive = a.CVActive
	r.CVVarianceRatio = JSONFloat(a.CVVarianceRatio)
	if a.Replicas != nil {
		r.Replicas = make([]JSONFloat, len(a.Replicas))
		for i, w := range a.Replicas {
			r.Replicas[i] = JSONFloat(w)
		}
	}
	return r
}

// PeriodsCellResult is the output of an OpPeriods cell: the three period
// estimates (seconds) and the waste each induces.
type PeriodsCellResult struct {
	Eq11         JSONFloat `json:"eq11"`
	Eq11Feasible bool      `json:"eq11_feasible"`
	Young        JSONFloat `json:"young"`
	Daly         JSONFloat `json:"daly"`
	WasteEq11    JSONFloat `json:"waste_eq11"`
	WasteYoung   JSONFloat `json:"waste_young"`
	WasteDaly    JSONFloat `json:"waste_daly"`
}

// SilentModelCellResult is the output of an OpSilentModel cell: the
// silent-error model's prediction with JSON-safe floats.
type SilentModelCellResult struct {
	Recovery           string    `json:"recovery"`
	Period             JSONFloat `json:"period"`
	Patterns           int       `json:"patterns"`
	TFinal             JSONFloat `json:"tfinal"`
	Waste              JSONFloat `json:"waste"`
	ExpectedDetections JSONFloat `json:"expected_detections"`
}

func newSilentModelCellResult(r model.SilentResult) *SilentModelCellResult {
	return &SilentModelCellResult{
		Recovery:           r.Mode.String(),
		Period:             JSONFloat(r.Period),
		Patterns:           r.Patterns,
		TFinal:             JSONFloat(r.TFinal),
		Waste:              JSONFloat(r.Waste),
		ExpectedDetections: JSONFloat(r.ExpectedDetections),
	}
}

// MLModelCellResult is the output of an OpMLModel cell: the two-level
// model's prediction (including the schedule it settled on) with JSON-safe
// floats.
type MLModelCellResult struct {
	Feasible       bool      `json:"feasible"`
	Period         JSONFloat `json:"period"`
	K              int       `json:"k"`
	TFinal         JSONFloat `json:"tfinal"`
	Waste          JSONFloat `json:"waste"`
	ExpectedFaults JSONFloat `json:"expected_faults"`
}

func newMLModelCellResult(r model.MultiLevelResult) *MLModelCellResult {
	return &MLModelCellResult{
		Feasible:       r.Feasible,
		Period:         JSONFloat(r.Period),
		K:              r.K,
		TFinal:         JSONFloat(r.TFinal),
		Waste:          JSONFloat(r.Waste),
		ExpectedFaults: JSONFloat(r.ExpectedFaults),
	}
}

// CellResult is the cached output of one cell; exactly one field is set,
// matching the cell's Op. The simulation-backed silent and multi-level ops
// reuse Sim: their aggregates have the same shape as protocol simulations.
type CellResult struct {
	Model       *ModelCellResult       `json:"model,omitempty"`
	Sim         *SimCellResult         `json:"sim,omitempty"`
	Periods     *PeriodsCellResult     `json:"periods,omitempty"`
	SilentModel *SilentModelCellResult `json:"silent_model,omitempty"`
	MLModel     *MLModelCellResult     `json:"ml_model,omitempty"`
}

// constructor builds the dist.Distribution factory of a sim cell.
func (d *DistSpec) constructor() (func(mtbf float64) dist.Distribution, error) {
	spec := DistSpec{Name: DistExponential}
	if d != nil {
		spec = *d
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	shape := spec.Shape
	switch spec.Name {
	case DistExponential:
		return func(mtbf float64) dist.Distribution { return dist.NewExponential(mtbf) }, nil
	case DistWeibull:
		return func(mtbf float64) dist.Distribution { return dist.WeibullWithMTBF(shape, mtbf) }, nil
	case DistGamma:
		return func(mtbf float64) dist.Distribution { return dist.GammaWithMTBF(shape, mtbf) }, nil
	case DistLogNormal:
		return func(mtbf float64) dist.Distribution { return dist.LogNormalWithMTBF(shape, mtbf) }, nil
	case DistCascade:
		return func(mtbf float64) dist.Distribution { return dist.CascadeWithMTBF(shape, mtbf) }, nil
	default:
		return nil, fmt.Errorf("scenario: unknown distribution %q", spec.Name)
	}
}

// Validate checks the cell is executable without running it.
func (c CellSpec) Validate() error {
	switch c.Op {
	case OpModel:
		if c.Precision != nil {
			return fmt.Errorf("scenario: precision applies to sim cells only")
		}
		if c.Params == nil {
			return fmt.Errorf("scenario: model cell needs params")
		}
		if _, err := ParseProtocol(c.Protocol); err != nil {
			return err
		}
		return c.Params.Validate()
	case OpScaling:
		if c.Precision != nil {
			return fmt.Errorf("scenario: precision applies to sim cells only")
		}
		if c.Scaling == nil {
			return fmt.Errorf("scenario: scaling cell needs a scaling study")
		}
		if c.Nodes <= 0 {
			return fmt.Errorf("scenario: scaling cell needs nodes > 0")
		}
		if _, err := ParseProtocol(c.Protocol); err != nil {
			return err
		}
		return c.Scaling.ParamsAt(c.Nodes).Validate()
	case OpSim:
		if c.Params == nil {
			return fmt.Errorf("scenario: sim cell needs params")
		}
		if _, err := ParseProtocol(c.Protocol); err != nil {
			return err
		}
		if c.Reps <= 0 {
			return fmt.Errorf("scenario: sim cell needs reps > 0")
		}
		if c.Reps > MaxSimReps {
			return fmt.Errorf("scenario: sim cell reps %d exceeds the %d limit", c.Reps, MaxSimReps)
		}
		if c.Epochs < 0 || c.Epochs > MaxSimEpochs {
			return fmt.Errorf("scenario: sim cell epochs must be in [0, %d]", MaxSimEpochs)
		}
		epochs := c.Epochs
		if epochs == 0 {
			epochs = 1
		}
		if c.Reps*epochs > MaxSimBudget {
			return fmt.Errorf("scenario: sim cell reps*epochs %d exceeds the %d budget", c.Reps*epochs, MaxSimBudget)
		}
		if _, err := c.Dist.constructor(); err != nil {
			return err
		}
		if err := c.Precision.Validate(); err != nil {
			return err
		}
		return c.Params.Validate()
	case OpPeriods:
		if c.Precision != nil {
			return fmt.Errorf("scenario: precision applies to sim cells only")
		}
		if c.Probe == nil {
			return fmt.Errorf("scenario: periods cell needs a probe")
		}
		if c.Probe.Mu <= 0 || c.Probe.C < 0 || c.Probe.D < 0 || c.Probe.R < 0 {
			return fmt.Errorf("scenario: periods probe needs mu > 0 and non-negative C, D, R")
		}
		return nil
	case OpSilentModel, OpSilentSim:
		if c.Precision != nil {
			return fmt.Errorf("scenario: precision applies to sim cells only")
		}
		if c.Silent == nil {
			return fmt.Errorf("scenario: %s cell needs a silent block", c.Op)
		}
		if _, err := model.ParseSilentRecovery(c.Silent.Recovery); err != nil {
			return err
		}
		if c.Op == OpSilentSim {
			if err := c.validateMonteCarlo(); err != nil {
				return err
			}
		}
		return c.Silent.Params.Validate()
	case OpMLModel, OpMLSim:
		if c.Precision != nil {
			return fmt.Errorf("scenario: precision applies to sim cells only")
		}
		if c.MultiLevel == nil {
			return fmt.Errorf("scenario: %s cell needs a multilevel block", c.Op)
		}
		if c.Op == OpMLSim {
			if err := c.validateMonteCarlo(); err != nil {
				return err
			}
		}
		return c.MultiLevel.Validate()
	default:
		return fmt.Errorf("scenario: unknown cell op %q", c.Op)
	}
}

// validateMonteCarlo checks the repetition budget and failure law shared by
// every simulation-backed op.
func (c CellSpec) validateMonteCarlo() error {
	if c.Reps <= 0 {
		return fmt.Errorf("scenario: %s cell needs reps > 0", c.Op)
	}
	if c.Reps > MaxSimReps {
		return fmt.Errorf("scenario: %s cell reps %d exceeds the %d limit", c.Op, c.Reps, MaxSimReps)
	}
	_, err := c.Dist.constructor()
	return err
}

// ExecOptions tune how a cell executes. They never change the result: any
// combination is bit-identical to the default (sim.Simulate's worker
// invariance and sim.SimulateFromTrace's replay equivalence), so the cache
// key stays the cell spec alone.
type ExecOptions struct {
	// Workers bounds replica-level parallelism inside a simulation cell
	// (<= 0: single-threaded). The Runner lends idle workers to cells when
	// a campaign has fewer unique cells than cores.
	Workers int
	// Arena, when non-nil, replays the cell's failure process from a
	// materialized trace instead of regenerating it. The caller must have
	// derived it from the cell's process key (see SimProcessKey); it is
	// ignored by non-simulation ops.
	Arena *sim.TraceArena
}

// Execute runs the cell with default execution options (single-threaded,
// generating failure arrivals on the fly).
func (c CellSpec) Execute() (CellResult, error) {
	return c.ExecuteOpts(ExecOptions{})
}

// ExecuteOpts runs the cell under the given execution tuning.
func (c CellSpec) ExecuteOpts(o ExecOptions) (CellResult, error) {
	if err := c.Validate(); err != nil {
		return CellResult{}, err
	}
	switch c.Op {
	case OpModel:
		proto, _ := ParseProtocol(c.Protocol)
		return CellResult{Model: newModelCellResult(model.Evaluate(proto, *c.Params, c.Options))}, nil
	case OpScaling:
		proto, _ := ParseProtocol(c.Protocol)
		return CellResult{Model: newModelCellResult(c.Scaling.EvaluateProtocol(proto, c.Nodes, c.Options))}, nil
	case OpSim:
		proto, _ := ParseProtocol(c.Protocol)
		ctor, _ := c.Dist.constructor()
		workers := o.Workers
		if workers <= 0 {
			workers = 1
		}
		cfg := sim.Config{
			Params:       *c.Params,
			Protocol:     proto,
			Epochs:       c.Epochs,
			Reps:         c.Reps,
			Seed:         c.Seed,
			Workers:      workers,
			Distribution: ctor,
			Safeguard:    c.Options.Safeguard,
		}
		if p := c.Precision; p != nil {
			prec := sim.Precision{
				RelTarget:             p.RelCI,
				AbsTarget:             p.AbsCI,
				Batch:                 p.Batch,
				DisableControlVariate: p.NoControlVariate,
				KeepReplicas:          p.KeepReplicas,
			}
			// The control variate needs the model-predicted makespan; an
			// infeasible prediction leaves it at 0, which disables the
			// variate without touching the stopping rule.
			if r := model.Evaluate(proto, *c.Params, c.Options); r.Feasible && !math.IsInf(r.TFinal, 0) {
				epochs := c.Epochs
				if epochs <= 0 {
					epochs = 1
				}
				prec.ModelTFinal = float64(epochs) * r.TFinal
			}
			var agg sim.AdaptiveAggregate
			if o.Arena != nil {
				agg = sim.SimulateAdaptiveFromTrace(cfg, o.Arena, prec)
			} else {
				agg = sim.SimulateAdaptive(cfg, prec)
			}
			return CellResult{Sim: newAdaptiveSimCellResult(agg)}, nil
		}
		var agg sim.Aggregate
		if o.Arena != nil {
			agg = sim.SimulateFromTrace(cfg, o.Arena)
		} else {
			agg = sim.Simulate(cfg)
		}
		return CellResult{Sim: newSimCellResult(agg)}, nil
	case OpSilentModel:
		mode, _ := model.ParseSilentRecovery(c.Silent.Recovery)
		return CellResult{SilentModel: newSilentModelCellResult(model.EvaluateSilent(mode, c.Silent.Params))}, nil
	case OpSilentSim:
		mode, _ := model.ParseSilentRecovery(c.Silent.Recovery)
		ctor, _ := c.Dist.constructor()
		cfg := sim.SilentConfig{
			Params:       c.Silent.Params,
			Mode:         mode,
			Reps:         c.Reps,
			Seed:         c.Seed,
			Workers:      max(o.Workers, 1),
			Distribution: ctor,
		}
		return CellResult{Sim: newSimCellResult(sim.SimulateSilent(cfg))}, nil
	case OpMLModel:
		return CellResult{MLModel: newMLModelCellResult(model.EvaluateMultiLevel(*c.MultiLevel))}, nil
	case OpMLSim:
		ctor, _ := c.Dist.constructor()
		cfg := sim.MultiLevelConfig{
			Params:       *c.MultiLevel,
			Reps:         c.Reps,
			Seed:         c.Seed,
			Workers:      max(o.Workers, 1),
			Distribution: ctor,
		}
		return CellResult{Sim: newSimCellResult(sim.SimulateMultiLevel(cfg))}, nil
	case OpPeriods:
		p := *c.Probe
		eq11, ok := model.OptimalPeriod(p.C, p.Mu, p.D, p.R)
		young := model.YoungPeriod(p.C, p.Mu)
		daly := model.DalyPeriod(p.C, p.Mu, p.D, p.R)
		waste := func(period float64) JSONFloat {
			return JSONFloat(1 - model.PeriodicFactor(period, p.C, p.Mu, p.D, p.R))
		}
		return CellResult{Periods: &PeriodsCellResult{
			Eq11:         JSONFloat(eq11),
			Eq11Feasible: ok,
			Young:        JSONFloat(young),
			Daly:         JSONFloat(daly),
			WasteEq11:    waste(eq11),
			WasteYoung:   waste(young),
			WasteDaly:    waste(daly),
		}}, nil
	default:
		return CellResult{}, fmt.Errorf("scenario: unknown cell op %q", c.Op)
	}
}
