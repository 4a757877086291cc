// Package abftckpt is a Go reproduction of Bosilca, Bouteiller, Hérault,
// Robert & Dongarra, "Assessing the Impact of ABFT and Checkpoint Composite
// Strategies" (APDCM/IPDPSW 2014).
//
// It provides, as one library:
//
//   - the paper's first-order analytical model of the three fault-tolerance
//     protocols (PurePeriodicCkpt, BiPeriodicCkpt, ABFT&PeriodicCkpt) with
//     optimal checkpoint periods and waste prediction;
//   - the discrete-event protocol simulator used to validate the model,
//     with parallel Monte-Carlo replicas and a catalogue of failure
//     processes (exponential, Weibull, log-normal, gamma, and empirical
//     replay of recorded inter-arrival samples), all normalizable to a
//     common MTBF;
//   - the weak-scaling scenario generators behind the paper's Figures 8-10;
//   - the substrates a real composite deployment needs: ABFT-encoded dense
//     linear algebra (checksummed GEMM and LU with single-failure
//     recovery), coordinated/partial/incremental checkpointing, and a
//     virtual process runtime executing the composite protocol on live
//     application state.
//
// This root package is a thin facade over the internal packages; examples/
// and cmd/ show complete usage.
package abftckpt

import (
	"io"
	"net/http"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/scenario"
	"abftckpt/internal/server"
	"abftckpt/internal/sim"
)

// Protocol identifies a fault-tolerance strategy.
type Protocol = model.Protocol

// The three protocols compared by the paper.
const (
	PurePeriodicCkpt = model.PurePeriodicCkpt
	BiPeriodicCkpt   = model.BiPeriodicCkpt
	AbftPeriodicCkpt = model.AbftPeriodicCkpt
)

// Protocols lists all protocols in presentation order.
var Protocols = model.Protocols

// Params gathers application and platform parameters (Section IV-A).
type Params = model.Params

// Result is a model prediction for one protocol on one epoch.
type Result = model.Result

// Options tunes protocol variants (safeguard rule, fixed periods).
type Options = model.Options

// Time unit helpers, in seconds.
const (
	Second = model.Second
	Minute = model.Minute
	Hour   = model.Hour
	Day    = model.Day
	Week   = model.Week
)

// Predict evaluates the analytical model (Equations (1)-(14)) for one
// protocol on one epoch.
func Predict(proto Protocol, p Params) Result {
	return model.Evaluate(proto, p, model.Options{})
}

// PredictAll evaluates the model for all three protocols.
func PredictAll(p Params) map[Protocol]Result {
	return model.EvaluateAll(p, model.Options{})
}

// OptimalPeriod returns the Eq. (11) checkpoint period
// sqrt(2*C*(mu - D - R)) and whether the protocol is feasible at first
// order.
func OptimalPeriod(ckptCost, mtbf, downtime, recovery float64) (period float64, feasible bool) {
	return model.OptimalPeriod(ckptCost, mtbf, downtime, recovery)
}

// Distribution is a failure inter-arrival law: Sample plus analytic Mean and
// CDF (see internal/dist).
type Distribution = dist.Distribution

// The failure-process catalogue, re-exported so SimConfig.Distribution can
// be populated from outside the module. Every constructor is normalized so
// the mean inter-arrival time equals mtbf exactly, keeping scenarios with
// different failure processes comparable at equal platform MTBF.

// Exponential returns the paper's memoryless baseline failure law.
func Exponential(mtbf float64) Distribution { return dist.NewExponential(mtbf) }

// Weibull returns the Weibull law of the given shape k (k < 1: infant
// mortality), scale solved so the mean equals mtbf.
func Weibull(shape, mtbf float64) Distribution { return dist.WeibullWithMTBF(shape, mtbf) }

// LogNormal returns the heavy-tailed log-normal law of the given sigma with
// mean mtbf.
func LogNormal(sigma, mtbf float64) Distribution { return dist.LogNormalWithMTBF(sigma, mtbf) }

// GammaDist returns the gamma law of the given shape k with mean mtbf.
func GammaDist(shape, mtbf float64) Distribution { return dist.GammaWithMTBF(shape, mtbf) }

// EmpiricalDist replays recorded inter-arrival samples (e.g. gaps measured
// from a cluster failure log) by uniform resampling.
func EmpiricalDist(samples []float64) Distribution { return dist.NewEmpirical(samples) }

// SimConfig configures a simulation campaign (see internal/sim for the
// extended knobs: failure distributions, worker count, safeguard, caps).
type SimConfig = sim.Config

// SimAggregate summarizes a simulation campaign.
type SimAggregate = sim.Aggregate

// Simulate runs the discrete-event simulator: Reps independent executions
// of the protocol over random failure traces, run across a worker pool and
// aggregated with confidence intervals. Results are bit-identical for any
// worker count at a fixed seed.
func Simulate(cfg SimConfig) SimAggregate {
	return sim.Simulate(cfg)
}

// SimPrecision configures adaptive-precision execution: a CI half-width
// target that turns cfg.Reps into a cap (see sim.Precision).
type SimPrecision = sim.Precision

// SimAdaptiveAggregate extends SimAggregate with the sequential-stopping
// estimate, its half-width and the control-variate diagnostics.
type SimAdaptiveAggregate = sim.AdaptiveAggregate

// SimulateAdaptive runs replicas in doubling batches until the waste CI
// half-width meets the precision target (or cfg.Reps is exhausted, where
// the result is bit-identical to Simulate's aggregate). Under exponential
// failures the analytic model prediction serves as a control variate.
func SimulateAdaptive(cfg SimConfig, prec SimPrecision) SimAdaptiveAggregate {
	return sim.SimulateAdaptive(cfg, prec)
}

// SilentRecovery selects how a verified-pattern protocol recovers from a
// detected silent error: backward rollback or forward ABFT-style
// correction.
type SilentRecovery = model.SilentRecovery

// The two silent-error recovery modes.
const (
	SilentBackward = model.SilentBackward
	SilentForward  = model.SilentForward
)

// SilentParams gathers the silent-error protocol parameters: work,
// mean time between silent errors, verification/checkpoint/recovery
// costs, forward-correction cost and detection latency.
type SilentParams = model.SilentParams

// SilentResult is the model prediction for one silent-error
// configuration.
type SilentResult = model.SilentResult

// PredictSilent evaluates the silent-error waste model for one recovery
// mode; a zero Period picks the mode's optimal period.
func PredictSilent(mode SilentRecovery, p SilentParams) SilentResult {
	return model.EvaluateSilent(mode, p)
}

// SilentOptimalPeriod returns the first-order optimal verification period
// for the given recovery mode.
func SilentOptimalPeriod(mode SilentRecovery, p SilentParams) float64 {
	return model.SilentOptimalPeriod(mode, p)
}

// SimSilentConfig configures the silent-error simulator (see
// sim.SilentConfig).
type SimSilentConfig = sim.SilentConfig

// SimulateSilent runs the silent-error Monte-Carlo simulator: Reps
// executions under exponential error injection with periodic
// verification, aggregated like Simulate.
func SimulateSilent(cfg SimSilentConfig) SimAggregate {
	return sim.SimulateSilent(cfg)
}

// MultiLevelParams gathers the two-level checkpointing parameters: fast
// level-1 and slow level-2 costs, the level-1 failure coverage, and the
// platform MTBF.
type MultiLevelParams = model.MultiLevelParams

// MultiLevelResult is the model prediction for one two-level
// configuration, including the optimal period and level-2 interval K.
type MultiLevelResult = model.MultiLevelResult

// PredictMultiLevel evaluates the two-level checkpointing model,
// optimizing the period and level-2 interval when unset.
func PredictMultiLevel(p MultiLevelParams) MultiLevelResult {
	return model.EvaluateMultiLevel(p)
}

// SimMultiLevelConfig configures the multi-level simulator (see
// sim.MultiLevelConfig).
type SimMultiLevelConfig = sim.MultiLevelConfig

// SimulateMultiLevel runs the two-level checkpointing Monte-Carlo
// simulator: failures draw a recovery level from the coverage lottery,
// aggregated like Simulate.
func SimulateMultiLevel(cfg SimMultiLevelConfig) SimAggregate {
	return sim.SimulateMultiLevel(cfg)
}

// Fig7Params returns the paper's Figure 7 scenario: a one-week epoch with
// C = R = 10 min, D = 1 min, rho = 0.8, phi = 1.03, ReconsABFT = 2 s.
func Fig7Params(mtbf, alpha float64) Params {
	return model.Fig7Params(mtbf, alpha)
}

// WeakScaling describes the Section V-C weak-scaling scenarios.
type WeakScaling = model.WeakScaling

// Fig8Scenario, Fig9Scenario and Fig10Scenario return the paper's
// weak-scaling studies; see internal/model and DESIGN.md §5-S3 for the
// checkpoint-cost-scaling caveat.
func Fig8Scenario() WeakScaling  { return model.Fig8Scenario(model.ScaleConstant) }
func Fig9Scenario() WeakScaling  { return model.Fig9Scenario(model.ScaleLinear) }
func Fig10Scenario() WeakScaling { return model.Fig10Scenario() }

// Campaign is a declarative scenario campaign: a named list of scenario
// specs (platform, protocol, failure law, sweep axes, replica count, seed —
// all durations in seconds) that the engine expands into content-addressed
// cells. See internal/scenario and the JSON schema in README.md.
type Campaign = scenario.Campaign

// CampaignSpec declares one scenario of a campaign.
type CampaignSpec = scenario.Spec

// CampaignRunner executes campaigns with an optional on-disk cell cache;
// rerunning an unchanged campaign re-executes zero cells.
type CampaignRunner = scenario.Runner

// CampaignReport summarizes a campaign run: cell counts (total, unique,
// cached, executed) and the finished artifacts in campaign order.
type CampaignReport = scenario.Report

// CampaignArtifact is one finished campaign output (heatmap, chart or
// table) with CSV, ASCII and gnuplot renderings.
type CampaignArtifact = scenario.Artifact

// LoadCampaign parses and validates a campaign from its JSON form. Unknown
// fields are rejected so typos fail loudly.
func LoadCampaign(r io.Reader) (*Campaign, error) { return scenario.Load(r) }

// LoadCampaignFile reads and validates a campaign file.
func LoadCampaignFile(path string) (*Campaign, error) { return scenario.LoadFile(path) }

// RunCampaign executes a campaign with the given cell cache directory
// (empty disables caching) and returns the report with all artifacts.
func RunCampaign(c *Campaign, cacheDir string) (*CampaignReport, error) {
	r := scenario.Runner{Cache: scenario.NewCellCache(cacheDir, 0)}
	return r.Run(c)
}

// CampaignPlan describes an expanded campaign before execution: cell
// counts (total and unique) and every scenario's cells and artifact names.
type CampaignPlan = scenario.Plan

// PlanCampaign validates and expands a campaign without executing
// anything.
func PlanCampaign(c *Campaign) (*CampaignPlan, error) { return scenario.PlanCampaign(c) }

// CellCache is the two-tier cell cache: a size-bounded in-memory LRU with
// singleflight request coalescing over the content-hashed on-disk store.
// Share one CellCache between campaign runs (CampaignRunner.Cache) and
// servers so identical concurrent requests execute once and hot cells are
// served without touching disk.
type CellCache = scenario.CellCache

// NewCellCache returns a cell cache over dir (empty disables the disk
// tier) holding at most memCells results in memory (<= 0 picks the
// default).
func NewCellCache(dir string, memCells int) *CellCache {
	return scenario.NewCellCache(dir, memCells)
}

// NewCampaignHandler returns the campaign HTTP API (the one cmd/ftserve
// serves) as an http.Handler, evaluating everything through the given
// shared cache: POST /v1/campaigns, GET /v1/jobs/{id}, artifact CSV
// streaming, and synchronous POST /v1/cells. workers bounds cell-level
// parallelism per campaign job (0: NumCPU).
func NewCampaignHandler(cache *CellCache, workers int) http.Handler {
	return server.New(server.Config{Cache: cache, Workers: workers}).Handler()
}
