package sim

import (
	"fmt"
	"math"
	"testing"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/rng"
)

// equivConfigs spans every phase kind, protocol, failure law, the safeguard,
// multi-epoch runs and horizon truncation.
func equivConfigs() []Config {
	weibull := func(mtbf float64) dist.Distribution { return dist.WeibullWithMTBF(0.7, mtbf) }
	gamma := func(mtbf float64) dist.Distribution { return dist.GammaWithMTBF(2, mtbf) }
	lognormal := func(mtbf float64) dist.Distribution { return dist.LogNormalWithMTBF(1.2, mtbf) }
	return []Config{
		{Params: model.Fig7Params(2*model.Hour, 0.8), Protocol: model.AbftPeriodicCkpt, Seed: 42},
		{Params: model.Fig7Params(1*model.Hour, 0.3), Protocol: model.PurePeriodicCkpt, Seed: 7},
		{Params: model.Fig7Params(4*model.Hour, 0.6), Protocol: model.BiPeriodicCkpt, Seed: 9},
		{Params: model.Fig7Params(2*model.Hour, 0.5), Protocol: model.AbftPeriodicCkpt, Seed: 3, Safeguard: true, Distribution: weibull},
		{Params: model.Fig7Params(3*model.Hour, 0.4), Protocol: model.AbftPeriodicCkpt, Seed: 5, Distribution: gamma},
		{Params: model.Fig7Params(6*model.Hour, 0.9), Protocol: model.BiPeriodicCkpt, Seed: 15, Distribution: lognormal},
		{Params: model.Fig7Params(30*model.Minute, 0.9), Protocol: model.AbftPeriodicCkpt, Seed: 13, Epochs: 3},
		// Near-infeasible: a tight horizon forces truncation through the
		// capped drain paths.
		{Params: model.Fig7Params(10*model.Minute, 0.2), Protocol: model.PurePeriodicCkpt, Seed: 21, MaxTimeFactor: 2},
		{Params: model.Fig7Params(10*model.Minute, 0.8), Protocol: model.AbftPeriodicCkpt, Seed: 23, MaxTimeFactor: 2},
	}
}

// The optimized replica runner must be bit-identical — not approximately
// equal — to the reference SimulateOnce walker on every substream: the same
// rng draws in the same order, the same float operations in the same
// association. The golden campaign CSVs and every cached cell depend on
// this.
func TestReplicaRunnerMatchesSimulateOnce(t *testing.T) {
	for ci, base := range equivConfigs() {
		cfg := base.withDefaults()
		phases := epochPhases(cfg.Protocol, cfg.Params, cfg.Safeguard)
		rr := newReplicaRunner(cfg, phases, periodicChunkSchedules(phases), cfg.Distribution(cfg.Params.Mu), nil)
		truncated := 0
		for rep := 0; rep < 48; rep++ {
			got := rr.run(rep)
			src := rng.New(rng.At(cfg.Seed, uint64(rep)))
			want := SimulateOnce(cfg, NewRenewalSource(cfg.Distribution(cfg.Params.Mu), src))
			if got != want {
				t.Fatalf("config %d rep %d diverged:\n got %+v\nwant %+v", ci, rep, got, want)
			}
			if got.Truncated {
				truncated++
			}
		}
		if cfg.MaxTimeFactor == 2 && truncated == 0 {
			t.Errorf("config %d: expected the tight horizon to truncate at least one replica", ci)
		}
	}
}

// A runner must also be reusable out of repetition order (workers steal
// arbitrary indices): replaying the same rep after unrelated ones is
// bit-identical.
func TestReplicaRunnerIsStateless(t *testing.T) {
	cfg := equivConfigs()[0].withDefaults()
	phases := epochPhases(cfg.Protocol, cfg.Params, cfg.Safeguard)
	rr := newReplicaRunner(cfg, phases, periodicChunkSchedules(phases), cfg.Distribution(cfg.Params.Mu), nil)
	first := rr.run(17)
	for _, rep := range []int{3, 99, 0, 17, 41} {
		rr.run(rep)
	}
	if again := rr.run(17); again != first {
		t.Fatalf("replaying rep 17 diverged:\n got %+v\nwant %+v", again, first)
	}
}

// The timeline hot path performs zero allocations per replica: all state
// lives in the worker's runner. This pins the optimization that took the
// replica loop from 4 allocations per replica to none; a regression here
// shows up long before it is visible in wall-clock benchmarks.
func TestReplicaRunnerAllocFree(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"exponential", Config{Params: model.Fig7Params(2*model.Hour, 0.8), Protocol: model.AbftPeriodicCkpt, Seed: 42}},
		{"weibull", Config{Params: model.Fig7Params(2*model.Hour, 0.5), Protocol: model.BiPeriodicCkpt, Seed: 3,
			Distribution: func(mtbf float64) dist.Distribution { return dist.WeibullWithMTBF(0.7, mtbf) }}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.withDefaults()
			phases := epochPhases(cfg.Protocol, cfg.Params, cfg.Safeguard)
			rr := newReplicaRunner(cfg, phases, periodicChunkSchedules(phases), cfg.Distribution(cfg.Params.Mu), nil)
			rep := 0
			allocs := testing.AllocsPerRun(100, func() {
				_ = rr.run(rep)
				rep++
			})
			if allocs != 0 {
				t.Errorf("replica run allocates %v times per replica, want 0", allocs)
			}
		})
	}
}

// Aggregates of the rewired Simulate stay pinned to values captured before
// the optimization (seed 42, 64 reps, the Figure 7 scenario at mu=2h,
// alpha=0.8): a coarse end-to-end tripwire on top of the exact per-replica
// equivalence above.
func TestSimulateAggregatePinned(t *testing.T) {
	agg := Simulate(Config{
		Params: model.Fig7Params(2*model.Hour, 0.8), Protocol: model.AbftPeriodicCkpt,
		Reps: 64, Seed: 42, Workers: 1,
	})
	for _, p := range []struct {
		name string
		got  float64
		want string
	}{
		{"waste mean", agg.Waste.Mean, "0.15613855"},
		{"faults mean", agg.Faults.Mean, "100.43750000"},
		{"tfinal mean", agg.TFinal.Mean, "716947.31994638"},
	} {
		if got := fmt.Sprintf("%.8f", p.got); got != p.want {
			t.Errorf("%s = %s, want pinned %s", p.name, got, p.want)
		}
	}
	if agg.Truncated != 0 || agg.Runs != 64 {
		t.Errorf("runs/truncated = %d/%d, want 64/0", agg.Runs, agg.Truncated)
	}
}

// FuzzWalkerMatchesSimulateOnce holds the one replica walker to the
// reference SimulateOnce walker on arbitrary configurations: every failure
// law, MTBF, α, protocol, epoch count, safeguard setting and safety
// horizon, with the stream drawn live and replayed from arenas whose
// horizon is any fraction of the useful time — 0 included, so replay falls
// back to live draws at once. Every replica must be bit-identical.
func FuzzWalkerMatchesSimulateOnce(f *testing.F) {
	f.Add(uint8(0), 2.0, 0.8, uint8(2), uint8(1), false, 0.0, 1.5, uint64(42))
	f.Add(uint8(1), 1.0, 0.5, uint8(2), uint8(2), true, 3.0, 0.3, uint64(3))
	f.Add(uint8(2), 3.0, 0.4, uint8(1), uint8(1), false, 5.0, 0.0, uint64(5))
	f.Add(uint8(3), 6.0, 0.9, uint8(0), uint8(3), false, 2.0, 2.5, uint64(15))
	f.Add(uint8(0), 0.25, 0.2, uint8(0), uint8(1), false, 1.0, 0.05, uint64(21))
	f.Add(uint8(1), 0.3, 0.8, uint8(2), uint8(1), true, 1.0, 1.0, uint64(23))
	laws := []func(float64) dist.Distribution{
		func(mtbf float64) dist.Distribution { return dist.NewExponential(mtbf) },
		func(mtbf float64) dist.Distribution { return dist.WeibullWithMTBF(0.7, mtbf) },
		func(mtbf float64) dist.Distribution { return dist.GammaWithMTBF(2, mtbf) },
		func(mtbf float64) dist.Distribution { return dist.LogNormalWithMTBF(1.2, mtbf) },
	}
	// fold maps an arbitrary float onto [0, span).
	fold := func(x, span float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(math.Abs(x), span)
	}
	f.Fuzz(func(t *testing.T, law uint8, mtbfHours, alpha float64, proto, epochs uint8, safeguard bool, maxTime, arenaFrac float64, seed uint64) {
		// MTBF from 15 minutes to two days and a safety horizon of at most
		// eight useful times keep every replica short, truncated ones too.
		cfg := Config{
			Params:        model.Fig7Params(model.Hour*(0.25+fold(mtbfHours, 47.75)), fold(alpha, 1)),
			Protocol:      model.Protocols[int(proto)%len(model.Protocols)],
			Epochs:        1 + int(epochs%3),
			Seed:          seed,
			Distribution:  laws[int(law)%len(laws)],
			Safeguard:     safeguard,
			MaxTimeFactor: 1 + fold(maxTime, 7),
			Reps:          6,
		}
		cfg = cfg.withDefaults()
		distrib := cfg.Distribution(cfg.Params.Mu)
		phases := epochPhases(cfg.Protocol, cfg.Params, cfg.Safeguard)
		sched := periodicChunkSchedules(phases)
		useful := float64(cfg.Epochs) * cfg.Params.T0
		tr := BuildTraceArena(distrib, cfg.Seed, cfg.Reps, fold(arenaFrac, 3)*useful)
		live := newReplicaRunner(cfg, phases, sched, distrib, nil)
		replay := newReplicaRunner(cfg, phases, sched, distrib, tr)
		for rep := 0; rep < cfg.Reps; rep++ {
			want := SimulateOnce(cfg, NewRenewalSource(distrib, rng.New(rng.At(cfg.Seed, uint64(rep)))))
			if got := live.run(rep); got != want {
				t.Fatalf("live rep %d diverged:\n got %+v\nwant %+v", rep, got, want)
			}
			if got := replay.run(rep); got != want {
				t.Fatalf("replayed rep %d (arena horizon %g) diverged:\n got %+v\nwant %+v", rep, tr.Horizon(), got, want)
			}
		}
	})
}
