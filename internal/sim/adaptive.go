package sim

import (
	"fmt"
	"math"

	"abftckpt/internal/dist"
	"abftckpt/internal/stats"
)

// Adaptive-precision execution: instead of spending a fixed replica budget
// per cell, SimulateAdaptive runs replicas in doubling batches and stops as
// soon as the waste confidence interval is tight enough, hard-capped at
// cfg.Reps. The interval is anytime-valid (stats.Sequential spends its
// error budget across looks at the law-of-iterated-logarithm rate), so the
// CI reported at the data-dependent stopping time is an honest one — pinned
// empirically by the coverage meta-tests in adaptive_test.go.
//
// When the failure law is exponential, the analytic model's makespan
// prediction H (Precision.ModelTFinal) powers a control variate: the number
// of failure arrivals in [0, H] is Poisson with exactly known mean H/MTBF
// and is strongly correlated with the replica's waste, so the
// regression-adjusted estimator needs fewer replicas for the same width.

// DefaultAdaptiveBatch is the default first batch size; batches double at
// every look so the number of looks stays logarithmic in the replica count.
const DefaultAdaptiveBatch = 64

// adaptiveConfidence is the CI level of the stopping rule and of the
// reported interval. It is typed so that 1 - adaptiveConfidence is the
// float64 difference 1 - 0.95 (0.050000000000000044), the error budget
// every adaptive cell has been stopped and cached under.
const adaptiveConfidence float64 = 0.95

// Precision configures adaptive-precision execution. At least one of
// RelTarget/AbsTarget must be positive.
type Precision struct {
	// RelTarget stops once the waste CI half-width falls to
	// RelTarget * |estimate|; 0 disables the relative criterion.
	RelTarget float64
	// AbsTarget stops once the half-width falls to AbsTarget (absolute
	// waste, i.e. a fraction in [0, 1]); 0 disables the absolute criterion.
	AbsTarget float64
	// Batch is the first batch size (default DefaultAdaptiveBatch); batches
	// double after every look.
	Batch int
	// ModelTFinal is the analytic model's predicted makespan for this
	// configuration; a positive value enables the control variate under an
	// exponential law. The replica walker counts each replica's failure
	// arrivals up to this horizon, a Poisson count with exactly known mean.
	ModelTFinal float64
	// DisableControlVariate forces plain estimation even when ModelTFinal
	// would enable the control variate.
	DisableControlVariate bool
	// KeepReplicas records every replica's waste in AdaptiveAggregate.Replicas
	// so callers can form paired-difference CIs across runs sharing traces.
	KeepReplicas bool
}

func (p Precision) withDefaults() Precision {
	if p.Batch <= 0 {
		p.Batch = DefaultAdaptiveBatch
	}
	return p
}

// Validate checks the precision block for nonsensical values.
func (p Precision) Validate() error {
	if math.IsNaN(p.RelTarget) || math.IsInf(p.RelTarget, 0) || p.RelTarget < 0 {
		return fmt.Errorf("sim: precision rel target %v must be finite and non-negative", p.RelTarget)
	}
	if math.IsNaN(p.AbsTarget) || math.IsInf(p.AbsTarget, 0) || p.AbsTarget < 0 {
		return fmt.Errorf("sim: precision abs target %v must be finite and non-negative", p.AbsTarget)
	}
	if p.RelTarget == 0 && p.AbsTarget == 0 {
		return fmt.Errorf("sim: precision needs a relative or absolute half-width target")
	}
	if math.IsNaN(p.ModelTFinal) || p.ModelTFinal < 0 {
		return fmt.Errorf("sim: precision model tfinal %v must be non-negative", p.ModelTFinal)
	}
	return nil
}

// AdaptiveAggregate extends Aggregate with the adaptive run's statistics.
// The embedded Aggregate summarizes exactly the replicas that ran
// (Runs <= RepsCap); its Waste.CI95 is the naive fixed-n half-width, while
// WasteEstimate/WasteHalfWidth are the sequential procedure's honest values
// (optional-stopping-valid, control-variate-adjusted) — report those.
type AdaptiveAggregate struct {
	Aggregate
	// RepsCap is the configured hard cap (cfg.Reps).
	RepsCap int
	// Looks counts the interim analyses performed.
	Looks int
	// Stopped reports that the precision target was met (false: the run
	// exhausted RepsCap first).
	Stopped bool
	// WasteEstimate is the reported waste estimate: the control-variate
	// adjusted mean when the CV is active, the plain mean otherwise.
	WasteEstimate float64
	// WasteHalfWidth is the anytime-valid CI half-width at the final look.
	WasteHalfWidth float64
	// CVActive reports whether the control variate was in effect.
	CVActive bool
	// CVBeta is the fitted control-variate coefficient (0 when inactive).
	CVBeta float64
	// CVVarianceRatio estimates Var(adjusted)/Var(plain) in (0, 1]; 1 when
	// the CV is inactive.
	CVVarianceRatio float64
	// Replicas holds each replica's waste in repetition order when
	// Precision.KeepReplicas was set (nil otherwise).
	Replicas []float64
}

// SimulateAdaptive is Simulate with sequential stopping: replicas run in
// doubling batches until the waste CI half-width meets prec's target or
// cfg.Reps is exhausted. With an unreachable target it runs every replica
// and the embedded Aggregate is bit-identical to Simulate(cfg) (pinned by
// TestSimulateAdaptiveAtCapMatchesSimulate). Like Simulate, it runs as a
// one-member cohort.
func SimulateAdaptive(cfg Config, prec Precision) AdaptiveAggregate {
	return simulateOne(cfg, &prec)
}

// member is one campaign's reduce, fed its replicas in repetition order:
// the aggregate and, for an adaptive campaign, the sequential estimator
// with its doubling batch schedule. next is the replica count of the
// campaign's next look (for a fixed-rep campaign, its Reps); done is set
// once it needs no more replicas. It also carries the campaign's shared,
// read-only walk inputs.
type member struct {
	cfg       Config
	phases    []phaseSpec
	cvHorizon float64

	agg         aggregator
	adaptive    bool
	seq         stats.Sequential // held by value: no allocation of its own
	keep        bool
	replicas    []float64
	batch, next int
	stopped     bool
	done        bool
}

// newMember prepares the reduce of a resolved campaign: fixed-rep when
// prec is nil, else adaptive under *prec (validated here, so a bad block
// panics on the caller's goroutine).
func newMember(cfg Config, distrib dist.Distribution, prec *Precision) member {
	m := member{cfg: cfg, next: cfg.Reps}
	m.phases = epochPhases(cfg.Protocol, cfg.Params, cfg.Safeguard)
	if prec == nil {
		return m
	}
	if err := prec.Validate(); err != nil {
		panic(err)
	}
	p := prec.withDefaults()
	m.cvHorizon = cvHorizonFor(cfg, distrib, p)
	m.adaptive = true
	m.seq = *stats.NewSequential(stats.SequentialOpts{
		Alpha:       1 - adaptiveConfidence,
		RelTarget:   p.RelTarget,
		AbsTarget:   p.AbsTarget,
		UseControl:  m.cvHorizon > 0,
		ControlMean: m.cvHorizon / cfg.Params.Mu,
	})
	if p.KeepReplicas {
		m.keep = true
		m.replicas = make([]float64, 0, p.Batch)
	}
	m.batch = p.Batch
	m.next = min(p.Batch, cfg.Reps)
	return m
}

// add reduces the campaign's next replica.
func (m *member) add(x measured) {
	if m.adaptive {
		m.seq.AddControlled(x.res.Waste, x.cv)
		if m.keep {
			m.replicas = append(m.replicas, x.res.Waste)
		}
	}
	m.agg.add(x.res)
}

// look ends the batch that brought the campaign to n == next replicas:
// an adaptive campaign takes its interim look and stops on target or at
// its cap, else doubles the batch; a fixed-rep campaign is done.
func (m *member) look(n int) {
	if !m.adaptive {
		m.done = true
		return
	}
	if _, stop := m.seq.Look(); stop {
		m.stopped, m.done = true, true
		return
	}
	if n == m.cfg.Reps {
		m.done = true
		return
	}
	m.batch *= 2
	m.next = min(n+m.batch, m.cfg.Reps)
}

// result summarizes the campaign: for a fixed-rep campaign only the
// embedded Aggregate is set.
func (m *member) result() AdaptiveAggregate {
	if !m.adaptive {
		return AdaptiveAggregate{Aggregate: m.agg.result()}
	}
	last := m.seq.LastInterval()
	return AdaptiveAggregate{
		Aggregate:       m.agg.result(),
		RepsCap:         m.cfg.Reps,
		Looks:           m.seq.Looks(),
		Stopped:         m.stopped,
		WasteEstimate:   last.Mean,
		WasteHalfWidth:  last.Half,
		CVActive:        m.cvHorizon > 0,
		CVBeta:          m.seq.Beta(),
		CVVarianceRatio: m.seq.VarianceRatio(),
		Replicas:        m.replicas,
	}
}

// cvHorizonFor resolves the control-variate horizon: positive only when the
// CV is usable — an exponential law (the arrival count over a fixed window
// is Poisson with exactly known mean; no closed-form renewal function exists
// for the other laws) with a model prediction available. The horizon is
// clipped to the run's safety cap.
func cvHorizonFor(cfg Config, distrib dist.Distribution, prec Precision) float64 {
	if prec.DisableControlVariate {
		return 0
	}
	if prec.ModelTFinal <= 0 || math.IsInf(prec.ModelTFinal, 0) {
		return 0
	}
	if _, ok := distrib.(dist.Exponential); !ok {
		return 0
	}
	h := prec.ModelTFinal
	useful := float64(cfg.Epochs) * cfg.Params.T0
	if hardCap := cfg.MaxTimeFactor * math.Max(useful, 1); h > hardCap {
		h = hardCap
	}
	return h
}
