package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
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
		rr := newReplicaRunner(cfg, phases, periodicChunkSchedules(phases), cfg.Distribution(cfg.Params.Mu))
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
	rr := newReplicaRunner(cfg, phases, periodicChunkSchedules(phases), cfg.Distribution(cfg.Params.Mu))
	first := rr.run(17)
	for _, rep := range []int{3, 99, 0, 17, 41} {
		rr.run(rep)
	}
	if again := rr.run(17); again != first {
		t.Fatalf("replaying rep 17 diverged:\n got %+v\nwant %+v", again, first)
	}
}

// The replica hot path performs zero allocations per replica, in every
// family: all state lives in the worker's runner. This pins the
// optimization that took the fail-stop replica loop from 4 allocations per
// replica to none; a regression here shows up long before it is visible in
// wall-clock benchmarks.
func TestReplicaRunnerAllocFree(t *testing.T) {
	failStop := func(cfg Config) func(int) RunResult {
		cfg = cfg.withDefaults()
		phases := epochPhases(cfg.Protocol, cfg.Params, cfg.Safeguard)
		return newReplicaRunner(cfg, phases, periodicChunkSchedules(phases), cfg.Distribution(cfg.Params.Mu)).run
	}
	multiLevel := func(cfg MultiLevelConfig) func(int) RunResult {
		cfg = cfg.withDefaults()
		return newMultiLevelRunner(cfg, cfg.resolveSchedule(), cfg.Distribution(cfg.Params.Mu)).run
	}
	silent := func(cfg SilentConfig) func(int) RunResult {
		cfg = cfg.withDefaults()
		return newSilentRunner(cfg, cfg.Distribution(cfg.Params.MuSilent)).run
	}
	ml := mlTestConfig()
	ml.Params.Mu = 2e5
	ml.Params.Period, ml.Params.K = 0, 0
	cases := []struct {
		name string
		run  func(int) RunResult
	}{
		{"exponential", failStop(Config{Params: model.Fig7Params(2*model.Hour, 0.8), Protocol: model.AbftPeriodicCkpt, Seed: 42})},
		{"weibull", failStop(Config{Params: model.Fig7Params(2*model.Hour, 0.5), Protocol: model.BiPeriodicCkpt, Seed: 3,
			Distribution: func(mtbf float64) dist.Distribution { return dist.WeibullWithMTBF(0.7, mtbf) }})},
		{"multilevel", multiLevel(ml)},
		{"silent", silent(silentTestConfig(model.SilentForward))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := 0
			allocs := testing.AllocsPerRun(100, func() {
				_ = tc.run(rep)
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
		live := newReplicaRunner(cfg, phases, sched, distrib)
		replay := newReplicaRunner(withTrace(cfg, tr), phases, sched, distrib)
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

// FuzzCompanionMatchesOnce holds the two-level and silent-error walkers to
// their scalar reference walkers on arbitrary configurations: every law,
// work, MTBF (or MTBE) and cost, the level-1 coverage, a fixed or
// model-resolved schedule (Period, K), both silent recovery modes and a
// safety horizon low enough to truncate. One runner is reused across the
// replicas, as a pool worker reuses it. Every replica must be bit-identical.
func FuzzCompanionMatchesOnce(f *testing.F) {
	f.Add(false, uint8(0), 1e5, 0.03, 0.0006, 0.0003, 0.0003, 0.006, 0.006, 0.8, uint8(0), 0.0, 3.0, uint64(42))
	f.Add(false, uint8(1), 1e6, 0.5, 0.001, 0.002, 0.001, 0.01, 0.02, 0.5, uint8(4), 0.05, 2.0, uint64(7))
	f.Add(false, uint8(2), 2e4, 0.02, 0.009, 0.0, 0.0, 0.04, 0.04, 1.5, uint8(1), 0.0, 0.5, uint64(9))
	f.Add(false, uint8(3), 5e5, 0.1, 0.002, 0.001, 0.001, 0.01, 0.01, 0.0, uint8(0), 0.0, 6.0, uint64(15))
	f.Add(true, uint8(0), 6e5, 0.01, 0.0001, 0.0005, 0.001, 0.001, 0.001, 0.0, uint8(0), 0.0, 3.0, uint64(42))
	f.Add(true, uint8(1), 1e5, 0.2, 0.0002, 0.001, 0.003, 0.002, 0.002, 0.0, uint8(1), 0.02, 1.0, uint64(3))
	f.Add(true, uint8(3), 3e4, 0.01, 0.005, 0.02, 0.01, 0.03, 0.04, 0.0, uint8(0), 0.3, 0.2, uint64(21))
	laws := []func(float64) dist.Distribution{
		func(mtbf float64) dist.Distribution { return dist.NewExponential(mtbf) },
		func(mtbf float64) dist.Distribution { return dist.WeibullWithMTBF(0.7, mtbf) },
		func(mtbf float64) dist.Distribution { return dist.GammaWithMTBF(2, mtbf) },
		func(mtbf float64) dist.Distribution { return dist.LogNormalWithMTBF(1.2, mtbf) },
	}
	fold := func(x, span float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(math.Abs(x), span)
	}
	const reps = 6
	f.Fuzz(func(t *testing.T, silent bool, law uint8, work, mtbf, d, c1, r1, c2, r2, coverage float64, k uint8, period, maxTime float64, seed uint64) {
		// Every duration is a fraction of the work W (10^3 to 10^6 s); the
		// MTBF is at least W/100 and the horizon at most eight W, so a
		// replica draws at most ~800 arrivals. The level-2 (silent:
		// checkpoint) cost and any fixed period are bounded away from 0 so
		// the walks take at most a few thousand steps.
		w := 1e3 + fold(work, 1e6)
		cost := func(x float64) float64 { return fold(x, 0.05) * w }
		mu := w * (0.01 + fold(mtbf, 2))
		fixed := 0.0
		if p := fold(period, 0.6); p > 0 {
			fixed = w * (0.001 + p)
		}
		distribution := laws[int(law)%len(laws)]
		maxFactor := 1 + fold(maxTime, 7)
		if silent {
			cfg := SilentConfig{
				Params: model.SilentParams{
					W: w, MuSilent: mu, V: cost(c1), C: 1e-4*w + cost(c2), R: cost(r2),
					F: cost(r1), Detect: cost(d), Period: fixed,
				},
				Mode:          model.SilentRecoveries[int(k)%len(model.SilentRecoveries)],
				Seed:          seed,
				Distribution:  distribution,
				MaxTimeFactor: maxFactor,
			}
			cfg = cfg.withDefaults()
			distrib := cfg.Distribution(cfg.Params.MuSilent)
			walker := newSilentRunner(cfg, distrib)
			for rep := 0; rep < reps; rep++ {
				want := SimulateSilentOnce(cfg, newErrorClock(distrib, rng.New(rng.At(cfg.Seed, uint64(rep)))))
				if got := walker.run(rep); got != want {
					t.Fatalf("silent %v rep %d diverged:\n got %+v\nwant %+v", cfg.Mode, rep, got, want)
				}
			}
			return
		}
		cfg := MultiLevelConfig{
			Params: model.MultiLevelParams{
				W: w, Mu: mu, D: cost(d), C1: cost(c1), R1: cost(r1), C2: 1e-4*w + cost(c2), R2: cost(r2),
				Coverage: math.Min(fold(coverage, 1.25), 1), Period: fixed, K: int(k) % (model.MaxMultiLevelK + 1),
			},
			Seed:          seed,
			Distribution:  distribution,
			MaxTimeFactor: maxFactor,
		}
		cfg = cfg.withDefaults()
		distrib := cfg.Distribution(cfg.Params.Mu)
		walker := newMultiLevelRunner(cfg, cfg.resolveSchedule(), distrib)
		for rep := 0; rep < reps; rep++ {
			want := SimulateMultiLevelOnce(cfg,
				NewRenewalSource(distrib, rng.New(rng.At(cfg.Seed, uint64(rep)))), rng.New(rng.At(cfg.Seed, uint64(rep), 1)))
			if got := walker.run(rep); got != want {
				t.Fatalf("two-level rep %d diverged:\n got %+v\nwant %+v", rep, got, want)
			}
		}
	})
}

// TestChunkSchedulesPresized holds the presized periodicChunkSchedules to
// the schedule the reference chunk loop builds with append, over random
// work, period and checkpoint costs, including whole multiples of the
// work per period (where the float sums may leave a sliver of a chunk), and
// checks that no schedule outgrew its presized capacity.
func TestChunkSchedulesPresized(t *testing.T) {
	src := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 20000; i++ {
		ckpt := 1000 * src.Float64()
		wpp := 1 + 1e4*src.Float64()
		work := wpp * (1 + 500*src.Float64())
		if i%4 == 0 {
			work = wpp * float64(1+src.IntN(500))
		}
		ph := phaseSpec{kind: phasePeriodic, work: work, period: ckpt + wpp, ckpt: ckpt}
		var want []float64
		for completed := 0.0; completed < ph.work; {
			chunk := min(ph.period-ph.ckpt, ph.work-completed)
			want = append(want, chunk)
			completed += chunk
		}
		got := periodicChunkSchedules([]phaseSpec{{kind: phaseShort}, ph})
		if got[0] != nil {
			t.Fatalf("short phase got schedule %v", got[0])
		}
		if !slices.Equal(got[1], want) {
			t.Fatalf("work %v period %v ckpt %v: schedule of %d chunks, append builds %d:\n got %v\nwant %v",
				ph.work, ph.period, ph.ckpt, len(got[1]), len(want), got[1], want)
		}
		// append keeps the presized capacity only while it never grows.
		if c, presized := cap(got[1]), int(math.Ceil(ph.work/(ph.period-ph.ckpt)))+1; c != presized {
			t.Fatalf("work %v period %v ckpt %v: %d chunks outgrew the presized capacity %d (now %d)",
				ph.work, ph.period, ph.ckpt, len(want), presized, c)
		}
	}
}
