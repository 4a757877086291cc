// Package dist provides the failure inter-arrival distributions that drive
// the simulator and the trace generator: the paper's exponential baseline
// (Section V) plus the Weibull, log-normal and gamma laws used as realism
// checks in the fault-tolerance literature, and an empirical distribution
// that replays recorded inter-arrival samples (e.g. from a cluster failure
// log).
//
// Every distribution exposes analytic Mean and CDF alongside Sample so tests
// can verify the sampler against the law it claims to implement, and so the
// *WithMTBF constructors can be normalized exactly: WeibullWithMTBF(k, mu),
// LogNormalWithMTBF(sigma, mu) and GammaWithMTBF(k, mu) all have Mean() == mu
// regardless of shape, which keeps scenarios with different failure processes
// comparable at equal platform MTBF.
//
// Sampling draws exclusively from an explicit *rng.Source, so determinism and
// stream addressing (rng.At) work exactly as for the rest of the simulator.
package dist

import (
	"fmt"
	"math"
	"sort"

	"abftckpt/internal/rng"
)

// Distribution is a positive continuous probability law for failure
// inter-arrival times.
type Distribution interface {
	// Sample draws one variate from src.
	Sample(src *rng.Source) float64
	// Mean returns the analytic expectation.
	Mean() float64
	// CDF returns P(X <= x). It is 0 for x <= 0 and non-decreasing.
	CDF(x float64) float64
	// String names the distribution and its parameters.
	String() string
}

func requirePositive(name, param string, v float64) {
	if !(v > 0) || math.IsInf(v, 1) || math.IsNaN(v) {
		panic(fmt.Sprintf("dist: %s needs %s > 0 and finite, got %v", name, param, v))
	}
}

// Exponential is the memoryless law of the paper's failure model: a renewal
// process with exponential inter-arrivals is a Poisson process of rate
// 1/MTBF.
type Exponential struct {
	mtbf float64
}

// NewExponential returns the exponential distribution with the given mean.
func NewExponential(mtbf float64) Exponential {
	requirePositive("Exponential", "mtbf", mtbf)
	return Exponential{mtbf: mtbf}
}

// Sample draws by inverse-CDF: -mtbf * ln(U), U uniform on (0,1).
func (e Exponential) Sample(src *rng.Source) float64 {
	return -e.mtbf * math.Log(src.Float64Open())
}

// Mean returns the MTBF.
func (e Exponential) Mean() float64 { return e.mtbf }

// CDF returns 1 - exp(-x/mtbf).
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-x / e.mtbf)
}

func (e Exponential) String() string { return fmt.Sprintf("Exponential(mtbf=%g)", e.mtbf) }

// Weibull has CDF 1 - exp(-(x/scale)^shape). Shape < 1 models infant
// mortality (decreasing hazard rate), the regime observed in HPC failure
// logs; shape 1 is exponential.
type Weibull struct {
	shape, scale float64
	invShape     float64 // 1/shape, precomputed off the sampling hot path
	mean         float64
}

// NewWeibull returns the Weibull distribution with the given shape and scale.
func NewWeibull(shape, scale float64) Weibull {
	requirePositive("Weibull", "shape", shape)
	requirePositive("Weibull", "scale", scale)
	return Weibull{shape: shape, scale: scale, invShape: 1 / shape, mean: scale * math.Gamma(1+1/shape)}
}

// WeibullWithMTBF returns the Weibull distribution of the given shape whose
// mean is exactly mtbf: the scale is solved from the Gamma function as
// mtbf / Gamma(1 + 1/shape).
func WeibullWithMTBF(shape, mtbf float64) Weibull {
	requirePositive("Weibull", "mtbf", mtbf)
	w := NewWeibull(shape, mtbf/math.Gamma(1+1/shape))
	w.mean = mtbf // exact by construction; avoid round-trip rounding
	return w
}

// Shape returns the shape parameter k.
func (w Weibull) Shape() float64 { return w.shape }

// Sample draws by inverse-CDF: scale * (-ln U)^(1/shape).
func (w Weibull) Sample(src *rng.Source) float64 {
	return w.scale * math.Pow(-math.Log(src.Float64Open()), w.invShape)
}

// Mean returns scale * Gamma(1 + 1/shape).
func (w Weibull) Mean() float64 { return w.mean }

// CDF returns 1 - exp(-(x/scale)^shape).
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.scale, w.shape))
}

func (w Weibull) String() string {
	return fmt.Sprintf("Weibull(shape=%g, mtbf=%g)", w.shape, w.mean)
}

// LogNormal is the law of exp(N(mu, sigma^2)): heavy-tailed for large sigma,
// a common fit for repair and inter-failure times.
type LogNormal struct {
	mu, sigma float64
	mean      float64
}

// NewLogNormal returns the log-normal distribution with log-scale mu and
// log-standard-deviation sigma.
func NewLogNormal(mu, sigma float64) LogNormal {
	requirePositive("LogNormal", "sigma", sigma)
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		panic(fmt.Sprintf("dist: LogNormal needs finite mu, got %v", mu))
	}
	return LogNormal{mu: mu, sigma: sigma, mean: math.Exp(mu + sigma*sigma/2)}
}

// LogNormalWithMTBF returns the log-normal distribution of the given sigma
// whose mean is exactly mtbf: mu = ln(mtbf) - sigma^2/2.
func LogNormalWithMTBF(sigma, mtbf float64) LogNormal {
	requirePositive("LogNormal", "mtbf", mtbf)
	ln := NewLogNormal(math.Log(mtbf)-sigma*sigma/2, sigma)
	ln.mean = mtbf // exact by construction
	return ln
}

// Sample draws exp(mu + sigma*Z) with Z standard normal.
func (l LogNormal) Sample(src *rng.Source) float64 {
	return math.Exp(l.mu + l.sigma*src.NormFloat64())
}

// Mean returns exp(mu + sigma^2/2).
func (l LogNormal) Mean() float64 { return l.mean }

// CDF returns Phi((ln x - mu) / sigma).
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-l.mu)/(l.sigma*math.Sqrt2))
}

func (l LogNormal) String() string {
	return fmt.Sprintf("LogNormal(sigma=%g, mtbf=%g)", l.sigma, l.mean)
}

// Gamma has density proportional to x^(shape-1) * exp(-x/scale). Shape 1 is
// exponential; integer shapes model failures that require several independent
// exponential stages to accumulate (Erlang).
type Gamma struct {
	shape, scale float64
	mean         float64
	// Marsaglia-Tsang constants, precomputed off the sampling hot path:
	// the effective shape a (boosted to shape+1 below 1), d = a - 1/3 and
	// c = 1/sqrt(9d). boosted selects the uniform-power correction, with
	// exponent invShape = 1/shape.
	d, c, invShape float64
	boosted        bool
}

// NewGamma returns the gamma distribution with the given shape and scale.
func NewGamma(shape, scale float64) Gamma {
	requirePositive("Gamma", "shape", shape)
	requirePositive("Gamma", "scale", scale)
	g := Gamma{shape: shape, scale: scale, mean: shape * scale}
	a := shape
	if a < 1 {
		g.boosted = true
		g.invShape = 1 / a
		a++
	}
	g.d = a - 1.0/3
	g.c = 1 / math.Sqrt(9*g.d)
	return g
}

// GammaWithMTBF returns the gamma distribution of the given shape whose mean
// is exactly mtbf: scale = mtbf / shape.
func GammaWithMTBF(shape, mtbf float64) Gamma {
	requirePositive("Gamma", "mtbf", mtbf)
	g := NewGamma(shape, mtbf/shape)
	g.mean = mtbf // exact by construction
	return g
}

// Shape returns the shape parameter k.
func (g Gamma) Shape() float64 { return g.shape }

// Sample draws with the Marsaglia-Tsang squeeze method; shapes below 1 are
// boosted through Gamma(shape+1) and a power of a uniform variate.
func (g Gamma) Sample(src *rng.Source) float64 {
	boost := 1.0
	if g.boosted {
		boost = math.Pow(src.Float64Open(), g.invShape)
	}
	d, c := g.d, g.c
	for {
		var x, v float64
		for {
			x = src.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := src.Float64Open()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return g.scale * boost * d * v
		}
	}
}

// Mean returns shape * scale.
func (g Gamma) Mean() float64 { return g.mean }

// CDF returns the regularized lower incomplete gamma function P(shape, x/scale).
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return regularizedGammaP(g.shape, x/g.scale)
}

func (g Gamma) String() string {
	return fmt.Sprintf("Gamma(shape=%g, mtbf=%g)", g.shape, g.mean)
}

// Empirical replays recorded inter-arrival samples (e.g. from a cluster
// failure log, or a Trace's InterArrivals): Sample draws uniformly with
// replacement from the recorded values, Mean is their sample mean, and CDF is
// the empirical CDF.
type Empirical struct {
	samples []float64 // sorted ascending
	mean    float64
}

// NewEmpirical builds an empirical distribution from recorded samples, which
// must be finite and positive. The input slice is copied.
func NewEmpirical(samples []float64) *Empirical {
	if len(samples) == 0 {
		panic("dist: Empirical needs at least one sample")
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	var sum float64
	for _, s := range sorted {
		requirePositive("Empirical", "every sample", s)
		sum += s
	}
	return &Empirical{samples: sorted, mean: sum / float64(len(sorted))}
}

// N returns the number of recorded samples.
func (e *Empirical) N() int { return len(e.samples) }

// Sample draws one recorded value uniformly with replacement.
func (e *Empirical) Sample(src *rng.Source) float64 {
	return e.samples[src.Intn(len(e.samples))]
}

// Mean returns the sample mean of the recorded values.
func (e *Empirical) Mean() float64 { return e.mean }

// CDF returns the fraction of recorded samples <= x.
func (e *Empirical) CDF(x float64) float64 {
	n := sort.Search(len(e.samples), func(i int) bool { return e.samples[i] > x })
	return float64(n) / float64(len(e.samples))
}

func (e *Empirical) String() string {
	return fmt.Sprintf("Empirical(n=%d, mtbf=%g)", len(e.samples), e.mean)
}

// CascadeBurstRatio is the burst-to-quiet mean ratio of the Cascade law:
// failures inside a burst follow each other two orders of magnitude faster
// than quiet-regime failures, the scale separation reported for correlated
// failure cascades (a switch or PDU taking down many nodes in minutes) in
// HPC failure logs.
const CascadeBurstRatio = 0.01

// Cascade models correlated failure bursts as a hyperexponential mixture:
// with probability prob the next inter-arrival is drawn from a fast "burst"
// exponential (mean CascadeBurstRatio times the quiet mean) — a follow-on
// failure triggered by the previous one — and otherwise from the quiet
// exponential. The mixture stays a renewal process, so every consumer of a
// Distribution (simulation cells, cohort walks) handles it
// unchanged, while the variance and burstiness grow far beyond the
// exponential baseline at the same MTBF.
type Cascade struct {
	prob             float64
	muBurst, muQuiet float64
	mean             float64
}

// NewCascade returns the cascade mixture with the given burst probability
// and regime means.
func NewCascade(prob, muBurst, muQuiet float64) Cascade {
	if !(prob > 0 && prob < 1) {
		panic(fmt.Sprintf("dist: Cascade needs burst probability in (0,1), got %v", prob))
	}
	requirePositive("Cascade", "muBurst", muBurst)
	requirePositive("Cascade", "muQuiet", muQuiet)
	return Cascade{prob: prob, muBurst: muBurst, muQuiet: muQuiet,
		mean: prob*muBurst + (1-prob)*muQuiet}
}

// CascadeWithMTBF returns the cascade mixture of the given burst
// probability whose mean is exactly mtbf: the quiet mean is solved from
// prob*CascadeBurstRatio + (1-prob) and the burst mean is CascadeBurstRatio
// times it.
func CascadeWithMTBF(prob, mtbf float64) Cascade {
	requirePositive("Cascade", "mtbf", mtbf)
	if !(prob > 0 && prob < 1) {
		panic(fmt.Sprintf("dist: Cascade needs burst probability in (0,1), got %v", prob))
	}
	quiet := mtbf / (1 - prob + prob*CascadeBurstRatio)
	c := NewCascade(prob, CascadeBurstRatio*quiet, quiet)
	c.mean = mtbf // exact by construction
	return c
}

// Prob returns the burst probability.
func (c Cascade) Prob() float64 { return c.prob }

// Sample draws the regime, then an exponential variate of its mean.
func (c Cascade) Sample(src *rng.Source) float64 {
	mu := c.muQuiet
	if src.Float64() < c.prob {
		mu = c.muBurst
	}
	return -mu * math.Log(src.Float64Open())
}

// Mean returns prob*muBurst + (1-prob)*muQuiet.
func (c Cascade) Mean() float64 { return c.mean }

// CDF returns the probability-weighted mixture of the regime CDFs.
func (c Cascade) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -(c.prob*math.Expm1(-x/c.muBurst) + (1-c.prob)*math.Expm1(-x/c.muQuiet))
}

func (c Cascade) String() string {
	return fmt.Sprintf("Cascade(prob=%g, mtbf=%g)", c.prob, c.mean)
}

// Shape bounds of the shaped families, enforced by Family. Inside them no
// *WithMTBF constructor panics, and for any MTBF between 1e-50 and 1e50
// every draw is positive and finite, so a renewal stream always advances.
// Outside them the laws degenerate numerically: below Weibull shape 0.1,
// Gamma(1+1/k) soon overflows and the scale collapses to 0; a log-normal
// sigma beyond 10 drives exp(mu + sigma*Z) to 0 or +Inf (sigma^2 overflows
// mu to -Inf near 1e154); below gamma shape 0.1 the boost U^(1/k) underflows
// to 0 for more and more draws (all of them near 1e-300). The upper bounds
// keep the laws away from degenerate near-constant intervals.
const (
	MinWeibullShape, MaxWeibullShape = 0.1, 100.0
	MaxLogNormalSigma                = 10.0
	MinGammaShape, MaxGammaShape     = 0.1, 1000.0
)

// Family resolves a distribution family by name into an MTBF-parameterized
// constructor, for command-line selection. shape is the Weibull/gamma shape
// k, the log-normal sigma, or the cascade burst probability; it is ignored
// for the exponential family. Recognized names: "exp"/"exponential",
// "weibull", "lognormal", "gamma", "cascade".
func Family(name string, shape float64) (func(mtbf float64) Distribution, error) {
	switch name {
	case "exp", "exponential":
		return func(mtbf float64) Distribution { return NewExponential(mtbf) }, nil
	case "weibull":
		if !(shape >= MinWeibullShape && shape <= MaxWeibullShape) {
			return nil, fmt.Errorf("dist: weibull needs shape in [%g, %g], got %g", MinWeibullShape, MaxWeibullShape, shape)
		}
		return func(mtbf float64) Distribution { return WeibullWithMTBF(shape, mtbf) }, nil
	case "lognormal":
		if !(shape > 0 && shape <= MaxLogNormalSigma) {
			return nil, fmt.Errorf("dist: lognormal needs sigma in (0, %g], got %g", MaxLogNormalSigma, shape)
		}
		return func(mtbf float64) Distribution { return LogNormalWithMTBF(shape, mtbf) }, nil
	case "gamma":
		if !(shape >= MinGammaShape && shape <= MaxGammaShape) {
			return nil, fmt.Errorf("dist: gamma needs shape in [%g, %g], got %g", MinGammaShape, MaxGammaShape, shape)
		}
		return func(mtbf float64) Distribution { return GammaWithMTBF(shape, mtbf) }, nil
	case "cascade":
		if !(shape > 0 && shape < 1) {
			return nil, fmt.Errorf("dist: cascade needs burst probability in (0,1), got %g", shape)
		}
		return func(mtbf float64) Distribution { return CascadeWithMTBF(shape, mtbf) }, nil
	}
	return nil, fmt.Errorf("dist: unknown family %q (exp|weibull|lognormal|gamma|cascade)", name)
}
