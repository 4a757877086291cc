package sim

import (
	"math"
	"testing"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
)

func silentTestConfig(mode model.SilentRecovery) SilentConfig {
	return SilentConfig{
		Params: model.SilentParams{
			W:        1e6,
			MuSilent: 5e4,
			V:        500,
			C:        500,
			R:        2000,
			F:        100,
			Detect:   50,
		},
		Mode: mode,
		Reps: 400,
		Seed: 7,
	}
}

// TestSilentSimMatchesModel is the silent-error cross-validation point of
// the acceptance criteria: under exponential errors the analytic model is
// the exact expectation of the simulated protocol, so the sample mean must
// fall within its own 95% confidence half-width of the prediction.
func TestSilentSimMatchesModel(t *testing.T) {
	for _, mode := range model.SilentRecoveries {
		cfg := silentTestConfig(mode)
		agg := SimulateSilent(cfg)
		want := model.EvaluateSilent(mode, cfg.Params)
		if agg.Truncated != 0 {
			t.Fatalf("%v: %d truncated runs at a benign point", mode, agg.Truncated)
		}
		if diff := math.Abs(agg.Waste.Mean - want.Waste); diff > agg.Waste.CI95 {
			t.Errorf("%v: sim waste %v vs model %v: |diff| %v above CI95 %v",
				mode, agg.Waste.Mean, want.Waste, diff, agg.Waste.CI95)
		}
		if diff := math.Abs(agg.TFinal.Mean - want.TFinal); diff > agg.TFinal.CI95 {
			t.Errorf("%v: sim TFinal %v vs model %v: |diff| %v above CI95 %v",
				mode, agg.TFinal.Mean, want.TFinal, diff, agg.TFinal.CI95)
		}
		if diff := math.Abs(agg.Faults.Mean - want.ExpectedDetections); diff > agg.Faults.CI95 {
			t.Errorf("%v: sim detections %v vs model %v: |diff| %v above CI95 %v",
				mode, agg.Faults.Mean, want.ExpectedDetections, diff, agg.Faults.CI95)
		}
	}
}

// TestSilentWorkerInvariance: the aggregate is bit-identical for any worker
// count.
func TestSilentWorkerInvariance(t *testing.T) {
	cfg := silentTestConfig(model.SilentBackward)
	cfg.Reps = 50
	cfg.Workers = 1
	serial := SimulateSilent(cfg)
	cfg.Workers = 3
	parallel := SimulateSilent(cfg)
	if serial != parallel {
		t.Fatalf("aggregate depends on worker count:\n1: %+v\n3: %+v", serial, parallel)
	}
}

// TestSilentErrorFreeDeterministic: with a negligible error rate every run
// is the same deterministic overhead-only execution.
func TestSilentErrorFreeDeterministic(t *testing.T) {
	cfg := silentTestConfig(model.SilentForward)
	cfg.Params.MuSilent = 1e18
	cfg.Params.Period = 1e5 // 10 exact patterns
	cfg.Reps = 20
	agg := SimulateSilent(cfg)
	want := cfg.Params.W + 10*(cfg.Params.V+cfg.Params.C)
	if agg.TFinal.Mean != want || agg.TFinal.StdDev != 0 {
		t.Fatalf("error-free runs not deterministic: mean %v (want %v), stddev %v",
			agg.TFinal.Mean, want, agg.TFinal.StdDev)
	}
	if agg.Faults.Mean != 0 {
		t.Fatalf("phantom detections: %v", agg.Faults.Mean)
	}
}

// TestSilentTruncation: an error rate far above the verification rate makes
// backward recovery livelock until the horizon cap.
func TestSilentTruncation(t *testing.T) {
	cfg := silentTestConfig(model.SilentBackward)
	cfg.Params.MuSilent = 10
	cfg.Params.Period = 1e5
	cfg.Reps = 5
	cfg.MaxTimeFactor = 10
	agg := SimulateSilent(cfg)
	if agg.Truncated != cfg.Reps {
		t.Fatalf("expected all %d runs truncated, got %d", cfg.Reps, agg.Truncated)
	}
	if agg.Waste.Mean != 1 {
		t.Fatalf("truncated runs must report waste 1, got %v", agg.Waste.Mean)
	}
}

// TestSilentNonExponentialLaw: the simulator accepts any inter-arrival law;
// a bursty Weibull shifts the waste away from the Poisson prediction while
// staying a valid execution.
func TestSilentNonExponentialLaw(t *testing.T) {
	cfg := silentTestConfig(model.SilentBackward)
	cfg.Reps = 100
	exp := SimulateSilent(cfg)
	cfg.Distribution = func(mu float64) dist.Distribution { return dist.WeibullWithMTBF(0.5, mu) }
	wb := SimulateSilent(cfg)
	if wb.Runs != 100 || wb.Waste.Mean <= 0 || wb.Waste.Mean >= 1 {
		t.Fatalf("weibull campaign unusable: %+v", wb.Waste)
	}
	if wb.Waste.Mean == exp.Waste.Mean {
		t.Fatalf("weibull and exponential produced identical waste %v", wb.Waste.Mean)
	}
}

// TestSilentBreakdownPartitionsWall: the activity breakdown sums to the
// makespan for every replica class.
func TestSilentBreakdownPartitionsWall(t *testing.T) {
	for _, mode := range model.SilentRecoveries {
		cfg := silentTestConfig(mode)
		cfg.Reps = 30
		agg := SimulateSilent(cfg)
		sum := agg.Work.Mean + agg.Ckpt.Mean + agg.Lost.Mean + agg.Recovery.Mean
		if math.Abs(sum-agg.TFinal.Mean) > 1e-6*agg.TFinal.Mean {
			t.Fatalf("%v: breakdown sum %v != TFinal %v", mode, sum, agg.TFinal.Mean)
		}
	}
}
