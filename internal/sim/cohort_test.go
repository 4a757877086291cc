package sim

import (
	"math"
	"slices"
	"testing"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
)

// sameAdaptive reports whether two adaptive results are bit-identical,
// per-replica wastes included.
func sameAdaptive(a, b AdaptiveAggregate) bool {
	return a.Aggregate == b.Aggregate && a.RepsCap == b.RepsCap && a.Looks == b.Looks &&
		a.Stopped == b.Stopped && a.WasteEstimate == b.WasteEstimate &&
		a.WasteHalfWidth == b.WasteHalfWidth && a.CVActive == b.CVActive && a.CVBeta == b.CVBeta &&
		a.CVVarianceRatio == b.CVVarianceRatio && slices.Equal(a.Replicas, b.Replicas)
}

// checkCohortMatchesSolo runs the members as one cohort and each alone,
// and fails unless every member's result is bit-identical to its solo run.
func checkCohortMatchesSolo(t *testing.T, members []CohortMember, workers int) {
	t.Helper()
	got := SimulateCohort(members, workers)
	if len(got) != len(members) {
		t.Fatalf("%d results for %d members", len(got), len(members))
	}
	for i, m := range members {
		solo := m.Config
		solo.Workers = 1
		if m.Precision == nil {
			if want := (AdaptiveAggregate{Aggregate: Simulate(solo)}); !sameAdaptive(got[i], want) {
				t.Fatalf("fixed member %d (%v) diverges from Simulate:\n got %+v\nwant %+v", i, m.Config.Protocol, got[i], want)
			}
			continue
		}
		if want := SimulateAdaptive(solo, *m.Precision); !sameAdaptive(got[i], want) {
			t.Fatalf("adaptive member %d (%v) diverges from SimulateAdaptive:\n got %+v\nwant %+v", i, m.Config.Protocol, got[i], want)
		}
	}
}

// FuzzCohortMatchesSolo holds the replica-major cohort walk to the members'
// solo runs: any failure law and shape, platform point, 2–4 members mixing
// protocols, the safeguard, epochs, safety horizons and adaptive precision
// (with KeepReplicas, and the control variate where the law allows it),
// on 1–4 workers. Every member's aggregate must be bit-identical.
func FuzzCohortMatchesSolo(f *testing.F) {
	f.Add(uint8(0), 0.0, 2.0, 0.8, uint8(3), uint32(0x00_0a_05_00), 0.1, uint8(1), uint8(24), uint64(42))
	f.Add(uint8(1), 0.7, 1.0, 0.5, uint8(2), uint32(0x00_00_0e_09), 0.2, uint8(3), uint8(40), uint64(3))
	f.Add(uint8(2), 2.0, 3.0, 0.4, uint8(4), uint32(0x1e_29_04_00), 0.05, uint8(2), uint8(16), uint64(5))
	f.Add(uint8(3), 1.2, 0.3, 0.9, uint8(4), uint32(0x0d_0a_4c_c9), 0.3, uint8(4), uint8(33), uint64(15))
	laws := []func(shape float64) func(float64) dist.Distribution{
		func(float64) func(float64) dist.Distribution {
			return func(mtbf float64) dist.Distribution { return dist.NewExponential(mtbf) }
		},
		func(k float64) func(float64) dist.Distribution {
			return func(mtbf float64) dist.Distribution { return dist.WeibullWithMTBF(k, mtbf) }
		},
		func(k float64) func(float64) dist.Distribution {
			return func(mtbf float64) dist.Distribution { return dist.GammaWithMTBF(k, mtbf) }
		},
		func(sigma float64) func(float64) dist.Distribution {
			return func(mtbf float64) dist.Distribution { return dist.LogNormalWithMTBF(sigma, mtbf) }
		},
	}
	fold := func(x, span float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(math.Abs(x), span)
	}
	f.Fuzz(func(t *testing.T, law uint8, shape, mtbfHours, alpha float64, count uint8, bits uint32, relCI float64, workers, reps uint8, seed uint64) {
		// Shapes in [0.5, 3), MTBF from 15 minutes to two days and safety
		// horizons of at most eight useful times keep every replica short.
		distribution := laws[int(law)%len(laws)](0.5 + fold(shape, 2.5))
		params := model.Fig7Params(model.Hour*(0.25+fold(mtbfHours, 47.75)), fold(alpha, 1))
		members := make([]CohortMember, 2+int(count)%3)
		for i := range members {
			// One byte per member: protocol (2 bits), safeguard, adaptive,
			// epochs (2 bits), safety horizon (2 bits).
			b := bits >> (8 * i)
			cfg := Config{
				Params:        params,
				Protocol:      model.Protocols[int(b&3)%len(model.Protocols)],
				Safeguard:     b&4 != 0,
				Epochs:        1 + int(b>>4&3)%3,
				Reps:          8 + int(reps)%40,
				Seed:          seed,
				Distribution:  distribution,
				MaxTimeFactor: 1 + float64(b>>6&3)*2,
			}
			members[i].Config = cfg
			if b&8 != 0 {
				members[i].Precision = &Precision{
					RelTarget:    0.02 + fold(relCI, 0.4),
					Batch:        4 + int(b>>2&3),
					ModelTFinal:  float64(cfg.Epochs) * model.Evaluate(cfg.Protocol, params, model.Options{Safeguard: cfg.Safeguard}).TFinal,
					KeepReplicas: true,
				}
			}
		}
		checkCohortMatchesSolo(t, members, 1+int(workers)%4)
	})
}

// Members must draw one failure process; a different seed or law is a
// caller bug, reported on the caller's goroutine.
func TestSimulateCohortRejectsMixedProcesses(t *testing.T) {
	base := Config{Params: model.Fig7Params(2*model.Hour, 0.8), Protocol: model.PurePeriodicCkpt, Reps: 4, Seed: 1}
	otherSeed, otherLaw := base, base
	otherSeed.Seed = 2
	otherLaw.Distribution = func(mtbf float64) dist.Distribution { return dist.WeibullWithMTBF(0.7, mtbf) }
	for name, other := range map[string]Config{"seed": otherSeed, "law": otherLaw} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a cohort mixing %s did not panic", name)
				}
			}()
			SimulateCohort([]CohortMember{{Config: base}, {Config: other}}, 1)
		}()
	}
}

// The cohort walk is TestReplicaRunnerAllocFree's twin: once a worker's
// shared prefix buffer has grown to its replicas' streams, walking a
// replica through every member allocates nothing.
func TestCohortWalkAllocFree(t *testing.T) {
	weibull := func(mtbf float64) dist.Distribution { return dist.WeibullWithMTBF(0.7, mtbf) }
	for _, tc := range []struct {
		name string
		law  func(float64) dist.Distribution
	}{{"exponential", nil}, {"weibull", weibull}} {
		t.Run(tc.name, func(t *testing.T) {
			params := model.Fig7Params(2*model.Hour, 0.8)
			var ms []member
			var distrib dist.Distribution
			for _, proto := range model.Protocols {
				cfg, d := Config{Params: params, Protocol: proto, Seed: 42, Distribution: tc.law}.resolve()
				prec := &Precision{RelTarget: 0.01, ModelTFinal: model.Evaluate(proto, params, model.Options{}).TFinal}
				ms = append(ms, newMember(cfg, d, nil), newMember(cfg, d, prec))
				distrib = d
			}
			w := newCohortWorker(ms, distrib)
			w.table = make([]measured, len(ms))
			for rep := 0; rep < 100; rep++ {
				w.run(rep)
			}
			rep := 0
			allocs := testing.AllocsPerRun(100, func() {
				w.run(rep % 100)
				rep++
			})
			if allocs != 0 {
				t.Errorf("cohort walk allocates %v times per replica, want 0", allocs)
			}
		})
	}
}

// shareCut points r's source at replica rep's stream as a cohort worker's
// first runner does (blockSource.share), with the shared prefix cut after
// n arrivals: a walk that reaches the cut continues privately from the
// generator state just past it. Each walk then starts with rewind; the
// first draws the prefix, later ones read it.
func shareCut(r *replicaRunner, rep, n int) {
	r.blocks.share(r.cfg.Seed, rep)
	r.blocks.prefixMax = n
}

// Walking a campaign's replicas over shared prefixes cut anywhere — past
// every run, mid-run or at once — reduces to Simulate's aggregate, for the
// walk that draws each prefix and for the one that reads it after, on
// every configuration: all protocols, all failure laws, the safeguard,
// multi-epoch runs and horizon truncation.
func TestSharedPrefixMatchesSimulate(t *testing.T) {
	for ci, cfg := range equivConfigs() {
		cfg.Reps = 48
		cfg.Workers = 1
		cfg = cfg.withDefaults()
		want := Simulate(cfg)
		r := newReplicaRunner(cfg, cfg.Distribution(cfg.Params.Mu))
		useful := float64(cfg.Epochs) * cfg.Params.T0
		for _, frac := range []float64{3, 0.3, 0} {
			cut := int(frac * useful / cfg.Params.Mu)
			var aggs [2]aggregator
			for rep := 0; rep < cfg.Reps; rep++ {
				shareCut(r, rep, cut)
				for walk := range aggs {
					r.blocks.rewind(0)
					aggs[walk].add(r.walk())
				}
			}
			for walk := range aggs {
				if got := aggs[walk].result(); got != want {
					t.Fatalf("config %d prefix cut at %d arrivals, walk %d diverged:\n got %+v\nwant %+v", ci, cut, walk, got, want)
				}
			}
		}
	}
}

// A walk that leaves its shared prefix keeps the zero-allocations-per-
// replica property, whether the cut lies past the replica's run or at its
// first arrival.
func TestSharedPrefixAllocFree(t *testing.T) {
	cfg := Config{Params: model.Fig7Params(2*model.Hour, 0.8), Protocol: model.AbftPeriodicCkpt, Seed: 42}.withDefaults()
	r := newReplicaRunner(cfg, cfg.Distribution(cfg.Params.Mu))
	for _, cut := range []int{int(2 * cfg.Params.T0 / cfg.Params.Mu), 0} {
		walk := func(rep int) {
			shareCut(r, rep%128, cut)
			r.blocks.rewind(0)
			r.walk()
		}
		for rep := 0; rep < 128; rep++ {
			walk(rep)
		}
		rep := 0
		allocs := testing.AllocsPerRun(100, func() {
			walk(rep)
			rep++
		})
		if allocs != 0 {
			t.Errorf("prefix cut at %d arrivals: the walk allocates %v times per replica, want 0", cut, allocs)
		}
	}
}
