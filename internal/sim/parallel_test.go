package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
)

// Replicas are addressed by repetition index and reduced in repetition order,
// so a campaign's aggregate must be bit-identical for every worker count —
// including the full breakdown summaries, not just the means.
func TestSimulateWorkerCountInvariance(t *testing.T) {
	cfg := Config{
		Params:   model.Fig7Params(2*model.Hour, 0.7),
		Protocol: model.AbftPeriodicCkpt,
		Reps:     64,
		Seed:     7,
	}
	serial := cfg
	serial.Workers = 1
	want := Simulate(serial)
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0), 16, 100} {
		par := cfg
		par.Workers = workers
		if got := Simulate(par); got != want {
			t.Fatalf("workers=%d: aggregate diverged from serial\n got %+v\nwant %+v", workers, got, want)
		}
	}
	// Workers=0 (the default: GOMAXPROCS) must also match.
	if got := Simulate(cfg); got != want {
		t.Fatalf("default workers: aggregate diverged from serial")
	}
}

// Worker-count invariance holds for non-exponential failure processes too
// (the Distribution constructor is invoked concurrently).
func TestSimulateWorkerInvarianceWeibull(t *testing.T) {
	cfg := Config{
		Params:   model.Fig7Params(2*model.Hour, 0.5),
		Protocol: model.BiPeriodicCkpt,
		Reps:     40,
		Seed:     3,
		Distribution: func(mtbf float64) dist.Distribution {
			return dist.WeibullWithMTBF(0.7, mtbf)
		},
	}
	serial := cfg
	serial.Workers = 1
	want := Simulate(serial)
	par := cfg
	par.Workers = runtime.GOMAXPROCS(0)
	if got := Simulate(par); got != want {
		t.Fatalf("weibull campaign diverged across worker counts:\n got %+v\nwant %+v", got, want)
	}
}

// The breakdown summaries must account for the full makespan: the means of
// the four activity categories sum to the mean makespan.
func TestAggregateBreakdownSumsToMakespan(t *testing.T) {
	agg := Simulate(Config{
		Params:   model.Fig7Params(2*model.Hour, 0.6),
		Protocol: model.AbftPeriodicCkpt,
		Reps:     50,
		Seed:     9,
	})
	sum := agg.Work.Mean + agg.Ckpt.Mean + agg.Lost.Mean + agg.Recovery.Mean
	if math.Abs(sum-agg.TFinal.Mean) > 1e-6*agg.TFinal.Mean {
		t.Errorf("breakdown means sum to %v, makespan mean %v", sum, agg.TFinal.Mean)
	}
	if agg.Work.N != agg.Runs || agg.Waste.N != agg.Runs {
		t.Errorf("summary counts %d/%d != runs %d", agg.Work.N, agg.Waste.N, agg.Runs)
	}
}

// Invalid parameters must panic on the caller's goroutine, not inside a
// worker (where the panic would crash the process unrecovered).
func TestSimulatePanicsOnCallerForInvalidParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid params")
		}
	}()
	Simulate(Config{Params: model.Params{T0: -1}, Protocol: model.PurePeriodicCkpt, Reps: 8})
}

// A misconfigured Distribution must likewise panic on the caller's
// goroutine: the constructor is probed once before any worker spawns.
func TestSimulatePanicsOnCallerForInvalidDistribution(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid distribution")
		}
	}()
	Simulate(Config{
		Params:   model.Fig7Params(2*model.Hour, 0.5),
		Protocol: model.PurePeriodicCkpt,
		Reps:     8,
		Distribution: func(mtbf float64) dist.Distribution {
			return dist.WeibullWithMTBF(0, mtbf) // shape 0: constructor panics
		},
	})
}

// Cross-validation against the paper's Section V setup: for exponential
// failures at moderate MTBF, the simulated waste of each protocol falls
// within the aggregate's 95% confidence interval of the model's prediction,
// up to the model's own first-order truncation error. The model neglects
// O((T/mu)^2) terms (failures during checkpoints, recovery and re-execution),
// which at mu = 6h on the Figure 7 scenario biases its waste upward by
// ~0.005-0.007 absolute (measured). The sign is fixed: the simulator
// matches the exact renewal-theory expectation, which the first-order
// model overestimates, so the simulated waste sits below the prediction.
// We therefore allow CI95 + 0.010: the 0.010 is the documented loose tolerance
// for the model bias, and the CI term makes the check statistical — it
// tightens automatically if the repetition count grows.
func TestSimWithinModelConfidenceInterval(t *testing.T) {
	p := model.Fig7Params(6*model.Hour, 0.5)
	const modelBias = 0.010
	for _, proto := range model.Protocols {
		predicted := model.Evaluate(proto, p, model.Options{}).Waste
		agg := Simulate(Config{Params: p, Protocol: proto, Reps: 400, Seed: 42})
		diff := math.Abs(agg.Waste.Mean - predicted)
		if tol := agg.Waste.CI95 + modelBias; diff > tol {
			t.Errorf("%v: |sim %.4f - model %.4f| = %.4f exceeds CI95+bias = %.4f",
				proto, agg.Waste.Mean, predicted, diff, tol)
		}
		if agg.Waste.CI95 <= 0 || math.IsNaN(agg.Waste.CI95) {
			t.Errorf("%v: degenerate CI95 %v", proto, agg.Waste.CI95)
		}
	}
}

// Campaigns longer than one replica block must still be worker-count
// invariant across the block boundary (the reduce is per block, in
// repetition order), through every entry point of the replica pool.
func TestSimulateWorkerInvarianceAcrossBlocks(t *testing.T) {
	const reps = 5000 // > the 4096 replica block size
	failStop := Config{
		Params:   model.Fig7Params(2*model.Hour, 0.3),
		Protocol: model.PurePeriodicCkpt,
		Reps:     reps,
		Seed:     13,
	}
	// An unreachable target runs the adaptive campaign to its cap; the
	// first batch alone crosses the block boundary, and the model makespan
	// switches the control variate on, so its counts ride the pool too.
	prec := Precision{
		AbsTarget:   1e-12,
		Batch:       4500,
		ModelTFinal: model.Evaluate(failStop.Protocol, failStop.Params, model.Options{}).TFinal,
	}
	silent := silentTestConfig(model.SilentForward)
	silent.Reps = reps
	multi := mlTestConfig()
	multi.Reps = reps
	cases := []struct {
		name string
		run  func(workers int) any
	}{
		{"Simulate", func(w int) any {
			cfg := failStop
			cfg.Workers = w
			return Simulate(cfg)
		}},
		{"SimulateCohort", func(w int) any {
			bi := failStop
			bi.Protocol = model.BiPeriodicCkpt
			return SimulateCohort([]CohortMember{{Config: failStop}, {Config: bi}, {Config: failStop, Precision: &prec}}, w)
		}},
		{"SimulateAdaptive", func(w int) any {
			cfg := failStop
			cfg.Workers = w
			return SimulateAdaptive(cfg, prec)
		}},
		{"SimulateSilent", func(w int) any {
			cfg := silent
			cfg.Workers = w
			return SimulateSilent(cfg)
		}},
		{"SimulateMultiLevel", func(w int) any {
			cfg := multi
			cfg.Workers = w
			return SimulateMultiLevel(cfg)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.run(1)
			for _, workers := range []int{runtime.GOMAXPROCS(0), 3} {
				if got := tc.run(workers); !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: multi-block campaign diverged from serial\n got %+v\nwant %+v", workers, got, want)
				}
			}
			var runs int
			switch agg := want.(type) {
			case Aggregate:
				runs = agg.Waste.N
			case AdaptiveAggregate:
				runs = agg.Waste.N
			case []AdaptiveAggregate:
				runs = agg[0].Waste.N
			}
			if runs != reps {
				t.Fatalf("aggregated %d runs, want %d", runs, reps)
			}
		})
	}
}

// An unknown protocol must also panic before any worker spawns.
func TestSimulatePanicsOnCallerForUnknownProtocol(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown protocol")
		}
	}()
	Simulate(Config{
		Params:   model.Fig7Params(2*model.Hour, 0.5),
		Protocol: model.Protocol(99),
		Reps:     8,
		Workers:  4,
	})
}
