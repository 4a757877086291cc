package sim

import (
	"testing"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/rng"
	"abftckpt/internal/trace"
)

// A recorded failure trace replayed through trace.Source drives the
// simulator deterministically: two replays of the same trace give identical
// results, and the measured waste is consistent with the model at the
// trace's empirical MTBF.
func TestSimulateOverRecordedTrace(t *testing.T) {
	p := model.Fig7Params(2*model.Hour, 0.8)
	// Record a platform trace long enough to cover the run with margin.
	horizon := 5 * p.T0
	tr := trace.GeneratePlatform(dist.NewExponential(p.Mu), horizon, rng.New(17))
	cfg := Config{Params: p, Protocol: model.AbftPeriodicCkpt}

	a := SimulateOnce(cfg, trace.NewSource(tr, rng.New(1)))
	b := SimulateOnce(cfg, trace.NewSource(tr, rng.New(1)))
	if a.TFinal != b.TFinal || a.Faults != b.Faults {
		t.Fatalf("trace replay not deterministic: %v/%d vs %v/%d", a.TFinal, a.Faults, b.TFinal, b.Faults)
	}
	if a.Waste <= 0 || a.Waste >= 1 {
		t.Fatalf("implausible waste %v", a.Waste)
	}
}

// Per-node traces (superposition of individual failure processes) drive the
// simulator with the platform MTBF mu_ind/N, matching the model's relation.
func TestSimulateOverPerNodeTrace(t *testing.T) {
	const nodes = 64
	p := model.Fig7Params(2*model.Hour, 0.8)
	muInd := p.Mu * nodes
	var sum float64
	const reps = 40
	for seed := uint64(0); seed < reps; seed++ {
		tr := trace.GeneratePerNode(dist.NewExponential(muInd), nodes, 6*p.T0, rng.New(rng.At(3, seed)))
		res := SimulateOnce(Config{Params: p, Protocol: model.AbftPeriodicCkpt},
			trace.NewSource(tr, rng.New(seed)))
		sum += res.Waste
	}
	got := sum / reps
	want := model.Evaluate(model.AbftPeriodicCkpt, p, model.Options{}).Waste
	if got < want-0.06 || got > want+0.06 {
		t.Fatalf("per-node trace waste %v vs model %v", got, want)
	}
}
