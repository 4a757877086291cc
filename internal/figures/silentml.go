package figures

import (
	"abftckpt/internal/model"
	"abftckpt/internal/scenario"
)

// SilentHeatmapConfig parameterizes the silent-error heatmaps: waste of the
// verified-pattern protocol over a mean-time-between-errors x
// verification-cost grid on the Figure 7 platform.
type SilentHeatmapConfig struct {
	// Recovery is "backward" (rollback, default) or "forward" (ABFT-style
	// in-place correction).
	Recovery string
	// MTBEMinutes is the x axis: mean time between silent errors, in
	// minutes (default 60 to 240 minutes, 19 points).
	MTBEMinutes []float64
	// VerifyCosts is the y axis: the cost of one verification in seconds
	// (default 30 to 600 seconds, 20 points).
	VerifyCosts []float64
	// Reps is the number of simulator runs per cell for the
	// simulation-backed outputs.
	Reps int
	// Seed addresses the silent-error streams.
	Seed uint64
}

// SilentHeatmapSpec returns the scenario spec of one silent-error heatmap;
// output is "model", "sim" or "diff". Seed and Reps only apply to the
// simulation-backed outputs (the engine rejects them on "model").
func SilentHeatmapSpec(name string, cfg SilentHeatmapConfig, output string) *scenario.Spec {
	params := &scenario.SilentHeatmapParams{Output: output, Recovery: cfg.Recovery}
	if len(cfg.MTBEMinutes) > 0 {
		params.MTBEMinutes = &scenario.Axis{Values: cfg.MTBEMinutes}
	}
	if len(cfg.VerifyCosts) > 0 {
		params.VerifyCosts = &scenario.Axis{Values: cfg.VerifyCosts}
	}
	return simulated(&scenario.Spec{Name: name, Kind: scenario.KindSilentHeatmap, Params: params}, output, cfg.Seed, cfg.Reps)
}

// DefaultMLSeries returns the two-level checkpointing configurations of the
// multi-level evaluation: a two-level protocol (cheap in-memory checkpoints
// covering 80% of failures, expensive disk checkpoints behind them) against
// a single-level disk-only baseline at equal disk cost. Both scale the
// platform MTBF as mu = (10 years) / n — a ten-year per-node MTBF budget.
func DefaultMLSeries() []scenario.MLSeriesSpec {
	perNodeMTBF := 10 * 365.25 * model.Day
	disk := 600.0
	return []scenario.MLSeriesSpec{
		{
			Name:       "two-level",
			MTBFAtBase: &perNodeMTBF,
			C1:         30, R1: 30,
			C2: disk, R2: disk,
			Coverage: 0.8,
		},
		{
			Name:       "disk-only",
			MTBFAtBase: &perNodeMTBF,
			C2:         disk, R2: disk,
			Coverage: 0,
			K:        1,
		},
	}
}

// MultiLevelScalingSpec returns a multilevel_scaling spec sweeping the given
// series over a node axis (default: the Figures 8-10 node counts); output is
// "model" (default) or "sim".
func MultiLevelScalingSpec(name string, series []scenario.MLSeriesSpec, nodes []float64, output string) *scenario.Spec {
	params := &scenario.MultiLevelScalingParams{Output: output, MLSeries: series}
	if len(nodes) > 0 {
		params.Nodes = &scenario.Axis{Values: nodes}
	}
	return &scenario.Spec{Name: name, Kind: scenario.KindMultiLevelScaling, Params: params}
}

// SilentCampaign collects the silent-error evaluation — backward- and
// forward-recovery model heatmaps, plus (withSim) the model-vs-simulation
// difference heatmaps — into one campaign. reps and seed parameterize the
// simulation-backed scenarios.
func SilentCampaign(reps int, seed uint64, withSim bool) *scenario.Campaign {
	c := &scenario.Campaign{
		Name:  "silent-errors",
		Notes: "Silent-error (SDC) waste: verified patterns with backward rollback vs forward ABFT-style correction, over an MTBE x verification-cost grid on the Figure 7 platform.",
		Seed:  &seed,
		Reps:  reps,
	}
	for _, rec := range model.SilentRecoveries {
		cfg := SilentHeatmapConfig{Recovery: rec.String(), Reps: reps, Seed: seed}
		c.Scenarios = append(c.Scenarios,
			SilentHeatmapSpec("silent_"+rec.String()+"_model", cfg, scenario.OutputModel))
		if withSim {
			c.Scenarios = append(c.Scenarios,
				SilentHeatmapSpec("silent_"+rec.String()+"_diff", cfg, scenario.OutputDiff))
		}
	}
	return c
}

// MultiLevelCampaign collects the multi-level checkpointing evaluation — the
// DefaultMLSeries weak-scaling sweep, model-predicted and (withSim)
// simulator-measured — into one campaign.
func MultiLevelCampaign(reps int, seed uint64, withSim bool) *scenario.Campaign {
	c := &scenario.Campaign{
		Name:  "multilevel-ckpt",
		Notes: "Two-level checkpointing (fast in-memory + slow disk) vs a disk-only baseline under weak scaling; the schedule table carries the model-optimal period and level-2 interval per node count.",
		Seed:  &seed,
		Reps:  reps,
		Scenarios: []*scenario.Spec{
			MultiLevelScalingSpec("multilevel", DefaultMLSeries(), nil, scenario.OutputModel),
		},
	}
	if withSim {
		c.Scenarios = append(c.Scenarios,
			MultiLevelScalingSpec("multilevel_sim", DefaultMLSeries(), nil, scenario.OutputSim))
	}
	return c
}
