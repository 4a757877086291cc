package sim

import (
	"math"
	"slices"
	"sort"
	"testing"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/rng"
)

// recordStream records replica rep's failure stream of the process
// (d, seed) with dist.Fill on rng.At1(seed, rep), through its first
// arrival past horizon: the arrivals a live walk of that replica reads.
func recordStream(d dist.Distribution, seed uint64, rep int, horizon float64) []float64 {
	var src rng.Source
	src.Reseed(rng.At1(seed, uint64(rep)))
	var arrivals []float64
	for last := 0.0; last <= horizon; last = arrivals[len(arrivals)-1] {
		at := len(arrivals)
		arrivals = append(arrivals, make([]float64, fillBatch)...)
		dist.Fill(d, &src, arrivals[at:], last)
	}
	return arrivals
}

// A recorded failure trace replayed through SimulateOnce drives the
// simulator deterministically: two replays of the same trace give
// identical results, the replica walker drawing the same stream live
// agrees with them, and the measured waste is plausible.
func TestSimulateOverRecordedTrace(t *testing.T) {
	cfg := Config{Params: model.Fig7Params(2*model.Hour, 0.8), Protocol: model.AbftPeriodicCkpt, Seed: 17, Reps: 1}
	cfg = cfg.withDefaults()
	d := cfg.Distribution(cfg.Params.Mu)
	// Record a platform trace long enough to cover the run with margin.
	tr := sortedTrace(recordStream(d, cfg.Seed, 0, 5*cfg.Params.T0))

	a := SimulateOnce(cfg, tr)
	b := SimulateOnce(cfg, tr)
	if a != b {
		t.Fatalf("trace replay not deterministic: %+v vs %+v", a, b)
	}
	if got := newReplicaRunner(cfg, d).run(0); got != a {
		t.Fatalf("walker diverged from the recorded trace:\n got %+v\nwant %+v", got, a)
	}
	if a.Waste <= 0 || a.Waste >= 1 {
		t.Fatalf("implausible waste %v", a.Waste)
	}
}

// sortedTrace replays a sorted list of failure instants; past its end no
// failure strikes.
type sortedTrace []float64

func (s sortedTrace) NextAfter(t float64) float64 {
	if i := sort.SearchFloat64s(s, math.Nextafter(t, math.Inf(1))); i < len(s) {
		return s[i]
	}
	return math.Inf(1)
}

// Per-node traces — one recorded replica stream per node, superposed up to
// the recording horizon — drive the simulator with the platform MTBF
// mu_ind/N, matching the model's relation.
func TestSimulateOverPerNodeTrace(t *testing.T) {
	const nodes = 64
	p := model.Fig7Params(2*model.Hour, 0.8)
	muInd := p.Mu * nodes
	horizon := 6 * p.T0
	var sum float64
	const reps = 40
	for seed := uint64(0); seed < reps; seed++ {
		var platform sortedTrace
		for node := range nodes {
			for _, a := range recordStream(dist.NewExponential(muInd), rng.At(3, seed), node, horizon) {
				if a <= horizon {
					platform = append(platform, a)
				}
			}
		}
		slices.Sort(platform)
		res := SimulateOnce(Config{Params: p, Protocol: model.AbftPeriodicCkpt}, platform)
		sum += res.Waste
	}
	got := sum / reps
	want := model.Evaluate(model.AbftPeriodicCkpt, p, model.Options{}).Waste
	if got < want-0.06 || got > want+0.06 {
		t.Fatalf("per-node trace waste %v vs model %v", got, want)
	}
}
