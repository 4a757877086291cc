package scenario

import (
	"fmt"
	"strings"

	"abftckpt/internal/model"
)

// Benchmark hooks: the canonical cells and campaign the internal/bench suite
// (and cmd/ftbench) measure. They live here so the benchmarked specs evolve
// with the scenario schema instead of drifting in a separate package.

// BenchCells returns one representative, validated cell per operation,
// keyed by op name. Simulation cells are sized so a single execution stays
// in the microsecond-to-millisecond range.
func BenchCells() map[string]CellSpec {
	params := model.Fig7Params(2*model.Hour, 0.8)
	cells := map[string]CellSpec{
		OpModel: {
			Op:       OpModel,
			Protocol: "abft",
			Params:   &params,
		},
		OpSim: {
			Op:       OpSim,
			Protocol: "abft",
			Params:   &params,
			Reps:     16,
			Seed:     42,
		},
		OpPeriods: {
			Op:    OpPeriods,
			Probe: &PeriodsProbe{C: 10 * model.Minute, Mu: 2 * model.Hour, D: model.Minute, R: 10 * model.Minute},
		},
	}
	for op, c := range cells {
		if err := c.Validate(); err != nil {
			panic(fmt.Sprintf("scenario: invalid bench cell %q: %v", op, err))
		}
	}
	return cells
}

// benchCampaignJSON is a deliberately small campaign — a model heatmap, a
// shared-cell diff heatmap and a periods table — that exercises expansion,
// dedup, cache lookup and artifact assembly while staying fast enough to run
// hundreds of times per benchmark second.
const benchCampaignJSON = `{
  "name": "bench",
  "seed": 7,
  "reps": 8,
  "scenarios": [
    {
      "name": "bench_model_heatmap",
      "kind": "heatmap",
      "protocol": "abft",
      "mtbf_minutes": {"from": 60, "to": 240, "count": 3},
      "alphas": {"from": 0, "to": 1, "count": 3}
    },
    {
      "name": "bench_diff_heatmap",
      "kind": "heatmap",
      "output": "diff",
      "protocol": "abft",
      "mtbf_minutes": {"from": 60, "to": 240, "count": 3},
      "alphas": {"from": 0, "to": 1, "count": 3},
      "reps": 4
    },
    {
      "name": "bench_periods",
      "kind": "periods"
    }
  ]
}`

// BenchCampaign returns the benchmark campaign. The returned value is
// freshly parsed on every call, so callers may mutate it.
func BenchCampaign() *Campaign {
	c, err := Load(strings.NewReader(benchCampaignJSON))
	if err != nil {
		panic(fmt.Sprintf("scenario: bench campaign: %v", err))
	}
	return c
}

// benchCohortCampaignJSON is the heatmap-shaped trace-cohort workload: four
// protocol variants (the three protocols plus the safeguarded composite)
// simulate the same MTBF x alpha grid under one Weibull failure process per
// point (share_traces), so every grid point is a four-cell cohort. The
// campaign/cold_cohort and campaign/cold_percell benchmarks run it with
// cohorts on and off respectively; their ratio is the trace-replay win.
const benchCohortCampaignJSON = `{
  "name": "bench_cohorts",
  "seed": 17,
  "reps": 24,
  "scenarios": [
    {
      "name": "bench_sim_pure",
      "kind": "heatmap",
      "output": "sim",
      "protocol": "pure",
      "share_traces": true,
      "distribution": {"name": "weibull", "shape": 0.7},
      "mtbf_minutes": {"from": 90, "to": 180, "count": 2},
      "alphas": {"from": 0.2, "to": 0.8, "count": 2}
    },
    {
      "name": "bench_sim_bi",
      "kind": "heatmap",
      "output": "sim",
      "protocol": "bi",
      "share_traces": true,
      "distribution": {"name": "weibull", "shape": 0.7},
      "mtbf_minutes": {"from": 90, "to": 180, "count": 2},
      "alphas": {"from": 0.2, "to": 0.8, "count": 2}
    },
    {
      "name": "bench_sim_abft",
      "kind": "heatmap",
      "output": "sim",
      "protocol": "abft",
      "share_traces": true,
      "distribution": {"name": "weibull", "shape": 0.7},
      "mtbf_minutes": {"from": 90, "to": 180, "count": 2},
      "alphas": {"from": 0.2, "to": 0.8, "count": 2}
    },
    {
      "name": "bench_sim_abft_safeguard",
      "kind": "heatmap",
      "output": "sim",
      "protocol": "abft",
      "options": {"safeguard": true},
      "share_traces": true,
      "distribution": {"name": "weibull", "shape": 0.7},
      "mtbf_minutes": {"from": 90, "to": 180, "count": 2},
      "alphas": {"from": 0.2, "to": 0.8, "count": 2}
    }
  ]
}`

// BenchCohortCampaign returns the trace-cohort benchmark campaign. The
// returned value is freshly parsed on every call, so callers may mutate it.
func BenchCohortCampaign() *Campaign {
	c, err := Load(strings.NewReader(benchCohortCampaignJSON))
	if err != nil {
		panic(fmt.Sprintf("scenario: bench cohort campaign: %v", err))
	}
	return c
}

// benchAdaptiveCampaignJSON is the adaptive-precision workload: one
// simulated waste curve across a deliberately heterogeneous MTBF axis
// (0.5h to 128h). Per-replica waste variance grows by two orders of
// magnitude along the axis, so a fixed-rep campaign must size every cell
// for the worst point while adaptive stopping spends replicas only where
// the 5%-relative CI target needs them. The campaign/adaptive and
// campaign/adaptive_fixed benchmarks run the adaptive spec and its
// equal-width fixed twin; their ns/op ratio is the replica-savings win.
const benchAdaptiveCampaignJSON = `{
  "name": "bench_adaptive",
  "seed": 29,
  "reps": 4096,
  "scenarios": [
    {
      "name": "bench_adaptive_waste",
      "kind": "heatmap",
      "output": "sim",
      "protocol": "abft",
      "precision": {"rel_ci": 0.05, "batch": 64},
      "mtbf_minutes": {"values": [30, 60, 120, 240, 480, 960, 1920, 3840, 7680]},
      "alphas": {"values": [0.5]}
    }
  ]
}`

// BenchAdaptiveCampaign returns the adaptive-precision benchmark campaign.
// The returned value is freshly parsed on every call, so callers may mutate
// it.
func BenchAdaptiveCampaign() *Campaign {
	c, err := Load(strings.NewReader(benchAdaptiveCampaignJSON))
	if err != nil {
		panic(fmt.Sprintf("scenario: bench adaptive campaign: %v", err))
	}
	return c
}

// BenchAdaptiveFixedCampaign returns the fixed-rep twin of
// BenchAdaptiveCampaign at equal CI width: the same grid without a
// precision block, at the repetition count the worst cell (mu = 128h,
// where relative waste spread peaks) needs to reach the same 5%-relative
// CI95 — 512 replicas, measured by internal/sim's
// TestAdaptiveReplicaSavings. A fixed-rep campaign has one rep knob, so
// every cell pays the worst cell's price.
func BenchAdaptiveFixedCampaign() *Campaign {
	c := BenchAdaptiveCampaign()
	c.Reps = 512
	for _, s := range c.Scenarios {
		s.Precision = nil
	}
	return c
}

// BenchCacheEncode returns a closure that serializes one representative
// executed cell through the disk-cache codec (pooled, pre-sized encoder
// buffers); the bench suite measures it as scenario/cache_encode.
func BenchCacheEncode() (func() error, error) {
	cell, ok := BenchCells()[OpSim]
	if !ok {
		return nil, fmt.Errorf("scenario: no bench cell for op %q", OpSim)
	}
	res, err := cell.Execute()
	if err != nil {
		return nil, err
	}
	// The runner derives a cell's key once, before any cache work; the
	// encode path only consumes it.
	k := cell.key()
	return func() error {
		buf, err := encodeCellEntry(k, res, 1.25)
		if err != nil {
			return err
		}
		putEntryBuf(buf)
		return nil
	}, nil
}
