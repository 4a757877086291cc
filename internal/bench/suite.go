package bench

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"testing"

	"abftckpt/internal/abft"
	"abftckpt/internal/app"
	"abftckpt/internal/dist"
	"abftckpt/internal/matrix"
	"abftckpt/internal/model"
	"abftckpt/internal/rng"
	"abftckpt/internal/scenario"
	"abftckpt/internal/sim"
	"abftckpt/internal/store"
	"abftckpt/internal/vmath"
	"abftckpt/internal/vproc"
)

// Benchmark is one named suite entry.
type Benchmark struct {
	// Name is hierarchical: subsystem/workload.
	Name string
	// Brief is a one-line description for `ftbench list`.
	Brief string
	// Gated marks the benchmark as regression-gated: `ftbench compare`
	// fails when its ns/op (normalized) or allocs/op regress beyond
	// tolerance. Ungated benchmarks are informational.
	Gated bool
	// UnitsPerOp and UnitName derive a throughput metric (e.g. cells/sec).
	UnitsPerOp float64
	UnitName   string
	// Fn is the benchmark body (ReportAllocs is applied by the harness).
	Fn func(b *testing.B)
}

// Fixed workloads, mirroring the paper's Figure 7 configuration so the
// numbers track the exact code paths campaigns execute.
const (
	replicaReps = 256
	weibullReps = 64
	distSamples = 1024
	// companionReps is the replica count of a silent or two-level campaign
	// cell in the example campaigns.
	companionReps = 100
)

func fig7Sim(reps int) sim.Config {
	return sim.Config{
		Params:   model.Fig7Params(2*model.Hour, 0.8),
		Protocol: model.AbftPeriodicCkpt,
		Reps:     reps,
		Seed:     42,
		Workers:  1,
	}
}

// Suite returns the named benchmark suite, in display order.
func Suite() []Benchmark {
	return []Benchmark{
		{
			Name:       "sim/replica_loop",
			Brief:      "serial Monte-Carlo replica loop, Fig7 composite point (the hot path)",
			Gated:      true,
			UnitsPerOp: replicaReps,
			UnitName:   "replicas",
			Fn: func(b *testing.B) {
				cfg := fig7Sim(replicaReps)
				for i := 0; i < b.N; i++ {
					sim.Simulate(cfg)
				}
			},
		},
		{
			Name:       "sim/replica_weibull",
			Brief:      "replica loop under a Weibull law (interface sampling path)",
			Gated:      true,
			UnitsPerOp: weibullReps,
			UnitName:   "replicas",
			Fn: func(b *testing.B) {
				cfg := fig7Sim(weibullReps)
				cfg.Distribution = func(mtbf float64) dist.Distribution {
					return dist.WeibullWithMTBF(0.7, mtbf)
				}
				for i := 0; i < b.N; i++ {
					sim.Simulate(cfg)
				}
			},
		},
		{
			Name:       "sim/cohort_walk",
			Brief:      "replica-major cohort walk: pure, bi and abft at the Fig7 point over one shared stream per replica",
			UnitsPerOp: 3 * replicaReps,
			UnitName:   "replicas",
			Fn: func(b *testing.B) {
				var members []sim.CohortMember
				for _, proto := range model.Protocols {
					cfg := fig7Sim(replicaReps)
					cfg.Protocol = proto
					members = append(members, sim.CohortMember{Config: cfg})
				}
				for i := 0; i < b.N; i++ {
					sim.SimulateCohort(members, 1)
				}
			},
		},
		{
			Name:  "sim/adaptive_stop",
			Brief: "adaptive-precision replica loop: sequential stopping + control variate, Fig7 point at 5% relative CI",
			Gated: true,
			Fn: func(b *testing.B) {
				cfg := fig7Sim(4096)
				prec := sim.Precision{
					RelTarget:   0.05,
					Batch:       64,
					ModelTFinal: model.Evaluate(cfg.Protocol, cfg.Params, model.Options{}).TFinal,
				}
				for i := 0; i < b.N; i++ {
					sim.SimulateAdaptive(cfg, prec)
				}
			},
		},
		{
			Name:       "sim/multilevel_loop",
			Brief:      "serial two-level checkpointing replicas, schedule left to the model (Period/K 0)",
			UnitsPerOp: companionReps,
			UnitName:   "replicas",
			Fn: func(b *testing.B) {
				cfg := sim.MultiLevelConfig{
					Params: model.MultiLevelParams{
						W: 1e5, Mu: 3000, D: model.Minute,
						C1: 30, R1: 30, C2: 600, R2: 600, Coverage: 0.8,
					},
					Reps: companionReps, Seed: 42, Workers: 1,
				}
				for i := 0; i < b.N; i++ {
					sim.SimulateMultiLevel(cfg)
				}
			},
		},
		{
			Name:       "sim/silent_loop",
			Brief:      "serial silent-error replicas, backward and forward recovery on the Figure 7 platform",
			UnitsPerOp: 2 * companionReps,
			UnitName:   "replicas",
			Fn: func(b *testing.B) {
				p := model.Fig7Params(2*model.Hour, 0.8)
				cfg := sim.SilentConfig{
					Params: model.SilentParams{
						W: p.T0, C: p.C, R: p.R, F: 30, Detect: 10,
						V: 2 * model.Minute, MuSilent: 2 * model.Hour,
					},
					Reps: companionReps, Seed: 42, Workers: 1,
				}
				for i := 0; i < b.N; i++ {
					for _, mode := range model.SilentRecoveries {
						cfg.Mode = mode
						sim.SimulateSilent(cfg)
					}
				}
			},
		},
		{
			Name:       "rng/exp_fill",
			Brief:      "batched exponential arrival pre-computation (the sampling floor)",
			Gated:      true,
			UnitsPerOp: distSamples,
			UnitName:   "draws",
			Fn: func(b *testing.B) {
				src := rng.New(9)
				var buf [32]float64
				for i := 0; i < b.N; i++ {
					for k := 0; k < distSamples/len(buf); k++ {
						src.ExpFillFrom(buf[:], -7200, 0)
					}
				}
			},
		},
		{
			Name:       "vmath/log",
			Brief:      "64 arrival uniforms through vmath.Log (AVX2 quads, SSE2 pairs, math.Log)",
			UnitsPerOp: vmathLen,
			UnitName:   "elements",
			Fn:         vmathBench(vmath.Log, func(src *rng.Source) float64 { return src.Float64Open() }),
		},
		{
			Name:       "vmath/exp",
			Brief:      "64 Weibull exponents through vmath.Exp (AVX2+FMA quads, math.Exp)",
			UnitsPerOp: vmathLen,
			UnitName:   "elements",
			Fn: vmathBench(vmath.Exp, func(src *rng.Source) float64 {
				return (1/0.7 - 1) * math.Log(-math.Log(src.Float64Open())) // shape 0.7
			}),
		},
		{
			Name:       "dist/sample_exponential",
			Brief:      "scalar exponential sampling through the Distribution interface",
			UnitsPerOp: distSamples,
			UnitName:   "draws",
			Fn:         distSampleBench(dist.NewExponential(7200)),
		},
		{
			Name:       "dist/sample_weibull",
			Brief:      "Weibull sampling (inverse-CDF with precomputed 1/shape)",
			UnitsPerOp: distSamples,
			UnitName:   "draws",
			Fn:         distSampleBench(dist.WeibullWithMTBF(0.7, 7200)),
		},
		{
			Name:       "dist/sample_gamma",
			Brief:      "Gamma sampling (Marsaglia-Tsang with precomputed squeeze constants)",
			UnitsPerOp: distSamples,
			UnitName:   "draws",
			Fn:         distSampleBench(dist.GammaWithMTBF(2, 7200)),
		},
		{
			Name:       "dist/sample_lognormal",
			Brief:      "log-normal sampling",
			UnitsPerOp: distSamples,
			UnitName:   "draws",
			Fn:         distSampleBench(dist.LogNormalWithMTBF(1.2, 7200)),
		},
		{
			Name:  "model/evaluate",
			Brief: "closed-form model evaluation, all protocols at one Fig7 point",
			Gated: true,
			Fn: func(b *testing.B) {
				p := model.Fig7Params(2*model.Hour, 0.8)
				for i := 0; i < b.N; i++ {
					for _, proto := range model.Protocols {
						model.Evaluate(proto, p, model.Options{})
					}
				}
			},
		},
		{
			Name:  "scenario/cell_model",
			Brief: "one model-cell evaluation (validate + execute + result mapping)",
			Gated: true,
			Fn:    cellBench(scenario.OpModel),
		},
		{
			Name:  "scenario/cell_periods",
			Brief: "one periods-cell evaluation",
			Fn:    cellBench(scenario.OpPeriods),
		},
		{
			Name:  "scenario/cache_encode",
			Brief: "disk-cache entry encoding (pooled, pre-sized encoder buffers)",
			Gated: true,
			Fn: func(b *testing.B) {
				enc, err := scenario.BenchCacheEncode()
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := enc(); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:       "scenario/entry_decode",
			Brief:      "decode 64 stored cell entries in paper.json's model/sim/scaling mix",
			UnitsPerOp: 64,
			UnitName:   "entries",
			Fn: func(b *testing.B) {
				decode, err := scenario.BenchEntryDecode()
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := decode(); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:       "scenario/cell_key",
			Brief:      "canonical encoding and SHA-256 of 64 Fig. 7 heatmap cells",
			UnitsPerOp: 64,
			UnitName:   "cells",
			Fn: func(b *testing.B) {
				key, err := scenario.BenchCellKey()
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := key(); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:       "scenario/cell_sim",
			Brief:      "one simulation cell (16 replicas) through the cell layer",
			Gated:      true,
			UnitsPerOp: 16,
			UnitName:   "replicas",
			Fn:         cellBench(scenario.OpSim),
		},
		{
			Name:  "campaign/cold",
			Brief: "bench campaign end to end with a cold in-memory cache",
			Fn: func(b *testing.B) {
				c := scenario.BenchCampaign()
				for i := 0; i < b.N; i++ {
					r := &scenario.Runner{Cache: scenario.NewCellCache("", 0), Workers: 1}
					if _, err := r.Run(c); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "campaign/cold_cohort",
			Brief: "heatmap-shaped sim campaign over shared failure processes, trace cohorts on",
			Gated: true,
			Fn: func(b *testing.B) {
				c := scenario.BenchCohortCampaign()
				run := func() {
					r := &scenario.Runner{Cache: scenario.NewCellCache("", 0), Workers: 1}
					if _, err := r.Run(c); err != nil {
						b.Fatal(err)
					}
				}
				// One untimed run first: worker-goroutine and scheduler
				// warm-up allocations land outside the measurement, keeping
				// allocs/op deterministic across measurement budgets (the
				// alloc gate is exact).
				run()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			},
		},
		{
			Name:  "campaign/cold_percell",
			Brief: "the same campaign with cohorts disabled (the trace-replay comparison point)",
			Fn: func(b *testing.B) {
				c := scenario.BenchCohortCampaign()
				run := func() {
					r := &scenario.Runner{Cache: scenario.NewCellCache("", 0), Workers: 1, DisableCohorts: true}
					if _, err := r.Run(c); err != nil {
						b.Fatal(err)
					}
				}
				run()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			},
		},
		{
			Name:       "campaign/adaptive",
			Brief:      "heterogeneous-MTBF waste curve under adaptive precision (5% relative CI, cap 4096)",
			Gated:      true,
			UnitsPerOp: 9,
			UnitName:   "cells",
			Fn: func(b *testing.B) {
				c := scenario.BenchAdaptiveCampaign()
				run := func() {
					r := &scenario.Runner{Cache: scenario.NewCellCache("", 0), Workers: 1}
					if _, err := r.Run(c); err != nil {
						b.Fatal(err)
					}
				}
				run()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			},
		},
		{
			Name:       "campaign/adaptive_fixed",
			Brief:      "the same curve at fixed 512 reps/cell, the count the worst cell needs for equal CI width",
			UnitsPerOp: 9,
			UnitName:   "cells",
			Fn: func(b *testing.B) {
				c := scenario.BenchAdaptiveFixedCampaign()
				run := func() {
					r := &scenario.Runner{Cache: scenario.NewCellCache("", 0), Workers: 1}
					if _, err := r.Run(c); err != nil {
						b.Fatal(err)
					}
				}
				run()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			},
		},
		{
			Name:  "campaign/warm",
			Brief: "bench campaign rerun against a warm cell cache (no executions)",
			Gated: true,
			Fn: func(b *testing.B) {
				c := scenario.BenchCampaign()
				cache := scenario.NewCellCache("", 0)
				r := &scenario.Runner{Cache: cache, Workers: 1}
				if _, err := r.Run(c); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := r.Run(c); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "campaign/warm_store",
			Brief: "bench campaign rerun with a cold LRU over a filled checksummed memory store (store get, verify, decode)",
			Gated: true,
			Fn: func(b *testing.B) {
				c := scenario.BenchCampaign()
				filled := store.WithChecksum(store.NewMemory())
				fill := &scenario.Runner{Cache: scenario.NewCellCacheStore(filled, 0), Workers: 1}
				if _, err := fill.Run(c); err != nil {
					b.Fatal(err)
				}
				run := func() {
					r := &scenario.Runner{Cache: scenario.NewCellCacheStore(filled, 0), Workers: 1}
					if _, err := r.Run(c); err != nil {
						b.Fatal(err)
					}
				}
				// Untimed warm-up run, as in campaign/cold_cohort: keeps
				// allocs/op exact for the alloc gate.
				run()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			},
		},
		{
			Name:  "campaign/cold_disk",
			Brief: "bench campaign with a cold disk cache (hash + write per cell)",
			Fn: func(b *testing.B) {
				c := scenario.BenchCampaign()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					dir, err := os.MkdirTemp("", "ftbench-cache-")
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					r := &scenario.Runner{Cache: scenario.NewCellCache(dir, 0), Workers: 1}
					if _, err := r.Run(c); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					os.RemoveAll(dir)
					b.StartTimer()
				}
			},
		},
		{
			Name:  "store/put_memory",
			Brief: "one 1 KiB result put into the in-memory store",
			Fn: func(b *testing.B) {
				rs := store.NewMemory()
				val := make([]byte, 1<<10)
				for i := 0; i < b.N; i++ {
					if err := rs.Put(fmt.Sprintf("%064d", i%4096), val); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "store/put_disk",
			Brief: "one 1 KiB result put into the disk store (temp write + rename)",
			Fn: func(b *testing.B) {
				dir, err := os.MkdirTemp("", "ftbench-store-")
				if err != nil {
					b.Fatal(err)
				}
				defer os.RemoveAll(dir)
				rs := store.NewDisk(dir)
				val := make([]byte, 1<<10)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rs.Put(fmt.Sprintf("%064d", i%4096), val); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:       "store/verify_batch",
			Brief:      "checksum-verified GetBatch of 64 framed ~620-byte entries over the in-memory store",
			UnitsPerOp: 64,
			UnitName:   "items",
			Fn: func(b *testing.B) {
				rs := store.WithChecksum(store.NewMemory())
				items := make([]store.Item, 64)
				keys := make([]string, len(items))
				for i := range items {
					keys[i] = fmt.Sprintf("%064d", i)
					items[i] = store.Item{Key: keys[i], Value: bytes.Repeat([]byte{'0' + byte(i%10)}, 620)}
				}
				if err := rs.PutBatch(items); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := rs.GetBatch(keys); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:       "store/remote_put_batch",
			Brief:      "one 64-item PutBatch round-trip against an HTTP store",
			UnitsPerOp: 64,
			UnitName:   "items",
			Fn: func(b *testing.B) {
				srv := httptest.NewServer(store.Handler(store.NewMemory()))
				defer srv.Close()
				rs := store.NewRemote(srv.URL, nil)
				items := make([]store.Item, 64)
				for i := range items {
					items[i] = store.Item{Key: fmt.Sprintf("%064d", i), Value: make([]byte, 1<<10)}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rs.PutBatch(items); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "abft/lu_recover",
			Brief: "ABFT LU: factor half-way, erase a row, recover from checksums, finish",
			Fn: func(b *testing.B) {
				src := rng.New(1)
				a := matrix.RandDiagDominant(192, src)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f := abft.NewLU(a)
					for f.StepsDone() < 96 {
						if err := f.Step(); err != nil {
							b.Fatal(err)
						}
					}
					f.EraseRow(144)
					if err := f.RecoverRow(144); err != nil {
						b.Fatal(err)
					}
					if err := f.Factor(); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "abft/gemm_recover",
			Brief: "ABFT GEMM: checksum-encoded multiply, erase a block column, recover",
			Fn: func(b *testing.B) {
				src := rng.New(2)
				a := matrix.RandDense(192, 192, src)
				enc := abft.EncodeColumns(matrix.RandDense(192, 128, src), 16, 4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out := abft.Gemm(a, enc)
					out.EraseBlockColumn(3)
					if err := out.Recover([]int{3}, nil); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "vproc/composite_runtime",
			Brief: "live composite runtime: two epochs with checkpoint store and fault injection",
			Fn: func(b *testing.B) {
				cfg := app.DefaultConfig()
				for i := 0; i < b.N; i++ {
					rt := vproc.NewRuntime(cfg.DataProcs+1, store.NewMemory(), vproc.NewInjector(0.05, uint64(i)))
					h := app.New(cfg, rt)
					if err := h.Run(2); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	}
}

// vmathLen is the slice length of the vmath rows: one batch of a Weibull
// fill.
const vmathLen = 64

// vmathBench times f over a copy of vmathLen fixed draws of gen.
func vmathBench(f func([]float64), gen func(*rng.Source) float64) func(b *testing.B) {
	return func(b *testing.B) {
		src := rng.New(11)
		var in, buf [vmathLen]float64
		for i := range in {
			in[i] = gen(src)
		}
		for i := 0; i < b.N; i++ {
			buf = in
			f(buf[:])
		}
	}
}

func distSampleBench(d dist.Distribution) func(b *testing.B) {
	return func(b *testing.B) {
		src := rng.New(5)
		sink := 0.0
		for i := 0; i < b.N; i++ {
			for k := 0; k < distSamples; k++ {
				sink = d.Sample(src)
			}
		}
		_ = sink
	}
}

func cellBench(op string) func(b *testing.B) {
	return func(b *testing.B) {
		cell, ok := scenario.BenchCells()[op]
		if !ok {
			b.Fatalf("no bench cell for op %q", op)
		}
		for i := 0; i < b.N; i++ {
			if _, err := cell.Execute(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
