package sim

import (
	"math"
	"testing"
	"testing/quick"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/rng"
	"abftckpt/internal/stats"
)

// unreachable is an absolute half-width target no waste estimate can meet,
// forcing an adaptive run to its cap.
const unreachable = 1e-300

// modelTFinal returns the analytic prediction H for the control variate.
func modelTFinal(cfg Config) float64 {
	res := model.Evaluate(cfg.Protocol, cfg.Params, model.Options{Safeguard: cfg.Safeguard})
	if !res.Feasible {
		return 0
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	return float64(epochs) * res.TFinal
}

// adaptiveMatrix enumerates protocol x distribution x worker-count cases.
func adaptiveMatrix() []Config {
	var cfgs []Config
	for _, proto := range model.Protocols {
		for _, workers := range []int{1, 4} {
			cfgs = append(cfgs,
				Config{
					Params:   model.Fig7Params(4*model.Hour, 0.5),
					Protocol: proto,
					Reps:     200,
					Seed:     17,
					Workers:  workers,
				},
				Config{
					Params:   model.Fig7Params(4*model.Hour, 0.5),
					Protocol: proto,
					Reps:     200,
					Seed:     23,
					Workers:  workers,
					Distribution: func(mtbf float64) dist.Distribution {
						return dist.WeibullWithMTBF(0.7, mtbf)
					},
				},
			)
		}
	}
	return cfgs
}

// TestSimulateAdaptiveAtCapMatchesSimulate pins the bit-identity contract:
// an adaptive run whose target is unreachable executes every replica, and
// its embedded Aggregate must equal Simulate(cfg) exactly — same floats,
// same order, same reduce — across protocols, laws, worker counts, and with
// the control variate both off and on (the CV count rides the walker's
// block refills and must not perturb the replicas it counts).
func TestSimulateAdaptiveAtCapMatchesSimulate(t *testing.T) {
	for _, cfg := range adaptiveMatrix() {
		want := Simulate(cfg)
		for _, cv := range []bool{false, true} {
			prec := Precision{AbsTarget: unreachable, DisableControlVariate: !cv}
			if cv {
				prec.ModelTFinal = modelTFinal(cfg)
			}
			got := SimulateAdaptive(cfg, prec)
			if got.Aggregate != want {
				t.Fatalf("proto %v workers %d cv %v: adaptive-at-cap aggregate diverges\n got %+v\nwant %+v",
					cfg.Protocol, cfg.Workers, cv, got.Aggregate, want)
			}
			if got.Runs != got.RepsCap || got.Stopped {
				t.Fatalf("unreachable target must run to cap: runs %d cap %d stopped %v",
					got.Runs, got.RepsCap, got.Stopped)
			}
		}
	}
}

// TestSimulateAdaptiveQuickBitIdentity is the testing/quick half of the
// determinism satellite: for arbitrary seeds, MTBFs, protocols and laws,
// adaptive execution at its cap reproduces Simulate bit-identically.
func TestSimulateAdaptiveQuickBitIdentity(t *testing.T) {
	f := func(seed uint64, protoIdx, distIdx, muStep uint8) bool {
		proto := model.Protocols[int(protoIdx)%len(model.Protocols)]
		mu := (1 + 6*float64(muStep)/255) * model.Hour
		cfg := Config{
			Params:   model.Fig7Params(mu, 0.6),
			Protocol: proto,
			Reps:     48,
			Seed:     seed,
			Workers:  2,
		}
		switch distIdx % 3 {
		case 1:
			cfg.Distribution = func(mtbf float64) dist.Distribution { return dist.WeibullWithMTBF(0.7, mtbf) }
		case 2:
			cfg.Distribution = func(mtbf float64) dist.Distribution { return dist.LogNormalWithMTBF(1.2, mtbf) }
		}
		got := SimulateAdaptive(cfg, Precision{AbsTarget: unreachable, ModelTFinal: modelTFinal(cfg)})
		return got.Aggregate == Simulate(cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateAdaptiveStopsEarly: an easy, low-variance cell must stop well
// short of a generous cap while meeting its relative target.
func TestSimulateAdaptiveStopsEarly(t *testing.T) {
	cfg := Config{
		Params:   model.Fig7Params(24*model.Hour, 0.5),
		Protocol: model.PurePeriodicCkpt,
		Reps:     1 << 14,
		Seed:     5,
	}
	agg := SimulateAdaptive(cfg, Precision{RelTarget: 0.1, ModelTFinal: modelTFinal(cfg)})
	if !agg.Stopped {
		t.Fatalf("expected early stop, ran %d/%d replicas", agg.Runs, agg.RepsCap)
	}
	if agg.Runs >= agg.RepsCap/4 {
		t.Fatalf("stop too late: %d of %d replicas", agg.Runs, agg.RepsCap)
	}
	if agg.WasteHalfWidth > 0.1*math.Abs(agg.WasteEstimate) {
		t.Fatalf("half-width %v misses the 10%% relative target on %v", agg.WasteHalfWidth, agg.WasteEstimate)
	}
	if !agg.CVActive {
		t.Fatal("control variate should be active for an exponential law with a model prediction")
	}
}

// TestControlVariateCountIsExact records each replica's failure stream
// through the CV horizon and checks that measure's count equals the number
// of recorded arrivals at or below it — the definition of N(H) — for live
// draws and for walks over a shared prefix cut at a third of that count,
// so the count crosses from the prefix into private draws.
func TestControlVariateCountIsExact(t *testing.T) {
	cfg := Config{
		Params:   model.Fig7Params(2*model.Hour, 0.5),
		Protocol: model.PurePeriodicCkpt,
		Reps:     64,
		Seed:     31,
	}
	cfg = cfg.withDefaults()
	distrib := cfg.Distribution(cfg.Params.Mu)
	h := modelTFinal(cfg)
	r := &replicaRunner{}
	r.init(cfg, epochPhases(cfg.Protocol, cfg.Params, cfg.Safeguard), distrib, h)
	for rep := 0; rep < cfg.Reps; rep++ {
		want := 0
		for _, a := range recordStream(distrib, cfg.Seed, rep, h) {
			if a <= h {
				want++
			}
		}
		if cv := r.measure(r.run(rep)).cv; int(cv) != want {
			t.Fatalf("live rep %d: cv count %v, want %d arrivals <= %v", rep, cv, want, h)
		}
		shareCut(r, rep, want/3)
		for walk := range 2 {
			r.blocks.rewind(h)
			if cv := r.measure(r.walk()).cv; int(cv) != want {
				t.Fatalf("rep %d walk %d over a prefix cut at %d arrivals: cv count %v, want %d arrivals <= %v", rep, walk, want/3, cv, want, h)
			}
		}
	}
}

// TestAdaptiveControlVariateHelps asserts the variance reduction end to end:
// on the same cell and target, the control-variate run reports a variance
// ratio well below 1 and stops with no more replicas than the plain run.
func TestAdaptiveControlVariateHelps(t *testing.T) {
	cfg := Config{
		Params:   model.Fig7Params(6*model.Hour, 0.5),
		Protocol: model.PurePeriodicCkpt,
		Reps:     1 << 14,
		Seed:     77,
	}
	prec := Precision{RelTarget: 0.02, Batch: 64, ModelTFinal: modelTFinal(cfg)}
	withCV := SimulateAdaptive(cfg, prec)
	prec.DisableControlVariate = true
	plain := SimulateAdaptive(cfg, prec)
	if !withCV.CVActive || plain.CVActive {
		t.Fatalf("CVActive: got %v/%v, want true/false", withCV.CVActive, plain.CVActive)
	}
	if withCV.CVVarianceRatio >= 0.9 {
		t.Fatalf("variance ratio %v, want < 0.9", withCV.CVVarianceRatio)
	}
	if withCV.Runs > plain.Runs {
		t.Fatalf("control variate used more replicas: %d vs %d", withCV.Runs, plain.Runs)
	}
	t.Logf("replicas: cv %d vs plain %d (variance ratio %.3f, beta %.3g)",
		withCV.Runs, plain.Runs, withCV.CVVarianceRatio, withCV.CVBeta)
}

// TestAdaptiveStoppingMonotoneInTarget is the monotonicity property from
// the issue: on identical data, a tighter relative target never stops with
// fewer replicas.
func TestAdaptiveStoppingMonotoneInTarget(t *testing.T) {
	f := func(seed uint64, a, b, muStep uint8) bool {
		t1 := 0.02 + 0.3*float64(a)/255
		t2 := 0.02 + 0.3*float64(b)/255
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		cfg := Config{
			Params:   model.Fig7Params((1+5*float64(muStep)/255)*model.Hour, 0.5),
			Protocol: model.BiPeriodicCkpt,
			Reps:     2048,
			Seed:     seed,
		}
		h := modelTFinal(cfg)
		tight := SimulateAdaptive(cfg, Precision{RelTarget: t1, ModelTFinal: h})
		loose := SimulateAdaptive(cfg, Precision{RelTarget: t2, ModelTFinal: h})
		return tight.Runs >= loose.Runs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveWasteCoverage is the simulator-level acceptance meta-test:
// 500 seeded adaptive runs (sequential stopping + control variate) of one
// paper cell, each reporting its anytime-valid 95% interval; the empirical
// coverage of the ground truth (a 200k-replica fixed run) must be at least
// nominal within binomial tolerance.
func TestAdaptiveWasteCoverage(t *testing.T) {
	cfg := Config{
		Params:   model.Fig7Params(6*model.Hour, 0.5),
		Protocol: model.AbftPeriodicCkpt,
		Reps:     1 << 13,
		Seed:     1,
	}
	truthCfg := cfg
	truthCfg.Reps = 200_000
	truth := Simulate(truthCfg).Waste.Mean
	h := modelTFinal(cfg)
	report := stats.EstimateCoverage(500, 0.95, func(i int) (stats.Interval, float64) {
		c := cfg
		c.Seed = rng.At(987, uint64(i))
		agg := SimulateAdaptive(c, Precision{RelTarget: 0.05, ModelTFinal: h})
		return stats.Interval{N: agg.Runs, Mean: agg.WasteEstimate, Half: agg.WasteHalfWidth}, truth
	})
	t.Logf("adaptive waste coverage: %v", report)
	if !report.AtLeastNominal(3) {
		t.Fatalf("adaptive simulator under-covers: %v", report)
	}
}

// TestAdaptiveReplicaSavings is the deterministic form of the campaign/
// adaptive bench acceptance: over a heterogeneous grid of cells, fixed-rep
// execution must size its budget for the hardest cell, while adaptive
// execution stops each cell at its own target — at least 3x fewer replicas
// in total at equal (or better) achieved CI width everywhere.
func TestAdaptiveReplicaSavings(t *testing.T) {
	// The Fig. 7 MTBF sweep: cells at small MTBF have near-deterministic
	// waste (relative sd ~0.01) while large-MTBF cells are fault-count
	// dominated (relative sd ~0.5) — the heterogeneity adaptive execution
	// exploits.
	mus := []float64{0.5, 1, 2, 4, 8, 16, 32, 64, 128}
	const target = 0.05 // relative half-width every cell must reach
	adaptiveTotal, worstFixed, cells := 0, 0, 0
	for _, muH := range mus {
		for _, proto := range model.Protocols {
			cfg := Config{
				Params:   model.Fig7Params(muH*model.Hour, 0.5),
				Protocol: proto,
				Reps:     1 << 14,
				Seed:     hashSeed(muH, proto),
			}
			agg := SimulateAdaptive(cfg, Precision{RelTarget: target, ModelTFinal: modelTFinal(cfg)})
			if !agg.Stopped {
				t.Fatalf("mu=%vh %v: cell did not converge within the cap", muH, proto)
			}
			adaptiveTotal += agg.Runs
			cells++

			// The per-cell replica count this cell needs under fixed-rep
			// execution; the campaign-wide budget is the max over cells.
			if fixed := fixedRepsForTarget(cfg, target); fixed > worstFixed {
				worstFixed = fixed
			}
		}
	}
	// A fixed-rep campaign sets ONE rep count for the whole grid, so to
	// guarantee the target everywhere it must spend the worst cell's budget
	// on every cell; adaptive execution stops each cell individually.
	fixedTotal := worstFixed * cells
	t.Logf("replicas: adaptive %d vs fixed %d = %d cells x %d (%.1fx)", adaptiveTotal, fixedTotal,
		cells, worstFixed, float64(fixedTotal)/float64(adaptiveTotal))
	if 3*adaptiveTotal > fixedTotal {
		t.Fatalf("adaptive savings below 3x: %d adaptive vs %d fixed replicas", adaptiveTotal, fixedTotal)
	}
}

func hashSeed(muH float64, proto model.Protocol) uint64 {
	return rng.At(1234, uint64(muH*1000), uint64(proto))
}

// fixedRepsForTarget sizes one cell under fixed-rep execution: the smallest
// power-of-two replica count whose plain 95% interval meets the relative
// target.
func fixedRepsForTarget(cfg Config, target float64) int {
	for reps := 64; ; reps *= 2 {
		c := cfg
		c.Reps = reps
		agg := Simulate(c)
		if agg.Waste.CI95 <= target*math.Abs(agg.Waste.Mean) {
			return reps
		}
		if reps >= 1<<20 {
			return reps
		}
	}
}
