package stats

import (
	"math"
	"testing"
	"testing/quick"

	"abftckpt/internal/rng"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.Variance()) || !math.IsNaN(a.Min()) {
		t.Error("empty accumulator should report NaN")
	}
	a.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", a.Mean())
	}
	// population variance is 4; sample variance = 32/7
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorSingleObservation(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Min() != 3.5 || a.Max() != 3.5 {
		t.Error("single observation stats wrong")
	}
	if !math.IsNaN(a.Variance()) || !math.IsNaN(a.CI95()) {
		t.Error("variance of single observation should be NaN")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	src := rng.New(2)
	var small, large Accumulator
	for i := 0; i < 100; i++ {
		small.Add(src.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(src.NormFloat64())
	}
	if !(large.CI95() < small.CI95()) {
		t.Errorf("CI95 did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.75, 7.75},
	}
	for _, tc := range cases {
		if got := Quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q should be NaN")
	}
	if got := Quantile([]float64{42}, 0.99); got != 42 {
		t.Errorf("singleton quantile = %v", got)
	}
}

func TestQuantilesMatchesQuantile(t *testing.T) {
	xs := []float64{5, 3, 8, 1, 9, 2, 7}
	qs := []float64{0, 0.1, 0.5, 0.9, 1}
	got := Quantiles(xs, qs...)
	for i, q := range qs {
		want := Quantile(xs, q)
		if math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("Quantiles[%v] = %v, want %v", q, got[i], want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

// Property: quantiles are monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		xs := make([]float64, 37)
		for i := range xs {
			xs[i] = src.Float64() * 1000
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	var a Accumulator
	a.AddAll([]float64{1, 2, 3})
	s := a.Summarize().String()
	if s == "" {
		t.Error("empty summary string")
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	var a Accumulator
	for i := 0; i < b.N; i++ {
		a.Add(float64(i))
	}
}

func TestKolmogorovSmirnovHandComputed(t *testing.T) {
	// Samples {0.1, 0.5, 0.9} against the uniform CDF on [0,1]:
	// at 0.1 the ECDF jumps 0->1/3 (max dev |0.1-0|),
	// at 0.5 it jumps 1/3->2/3 (max dev |0.5-1/3|),
	// at 0.9 it jumps 2/3->1 (max dev |0.9-2/3| = 0.2333...).
	uniform := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	d := KolmogorovSmirnov([]float64{0.5, 0.1, 0.9}, uniform)
	want := 0.9 - 2.0/3
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("KS = %v, want %v", d, want)
	}
	if !math.IsNaN(KolmogorovSmirnov(nil, uniform)) {
		t.Error("empty input should be NaN")
	}
	// A sample far outside the support saturates the statistic at ~1.
	if d := KolmogorovSmirnov([]float64{5}, uniform); d != 1 {
		t.Errorf("KS of impossible sample = %v, want 1", d)
	}
}

func TestKolmogorovSmirnovDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	KolmogorovSmirnov(xs, func(x float64) float64 { return x / 4 })
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}
