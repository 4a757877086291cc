package main

import (
	"errors"
	"math"
	"net/http"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200 down to 1
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 100}, {0.99, 198}, {1, 200}, {0.001, 1},
	} {
		if got := percentile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("p%g = %v, want %v", tc.q*100, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
	// A sample of fewer than 100 has its p99 at the maximum.
	if got := percentile([]float64{3, 1, 2}, 0.99); got != 3 {
		t.Errorf("p99 of 3 samples = %v, want 3", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) (exclusive method), the statistic the
// comparison protocol uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		// statistics.quantiles([1, 5], n=4)
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		// statistics.quantiles([2, 4, 4, 5, 7], n=4)
		{[]float64{2, 4, 4, 5, 7}, [3]float64{3, 4, 6}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one sample has no quartiles")
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {25, 26}, {40, 50}}
	if got := covered(ivs, 0, 100); got != 15+10+10 {
		t.Errorf("covered = %d, want 35", got)
	}
	// Clipped to the window [8, 45).
	if got := covered(ivs, 8, 45); got != 7+10+5 {
		t.Errorf("clipped covered = %d, want 22", got)
	}
}

// TestSummarizeTailAndLateness: latency percentiles count a failed
// request as infinitely late, lateness comes only from requests the
// generator slept for, and the achieved rate divides completions by the
// phase length.
func TestSummarizeTailAndLateness(t *testing.T) {
	var outs []outcome
	for i := 0; i < 100; i++ {
		o := outcome{sent: true, due: time.Duration(i) * 10 * time.Millisecond, status: http.StatusOK,
			latency: time.Duration(i+1) * time.Millisecond, late: time.Duration(i) * time.Microsecond}
		if i%10 == 0 {
			o.late = -1 // the sender was busy: no generator lateness
		}
		outs = append(outs, o)
	}
	outs[98].status = http.StatusTooManyRequests
	outs[99].status = http.StatusInternalServerError
	outs = append(outs, outcome{}) // never sent
	st := summarize(outs)
	if st.sent != 100 || st.failed != 2 {
		t.Fatalf("sent %d failed %d, want 100 and 2", st.sent, st.failed)
	}
	if !math.IsInf(st.p99, 1) {
		t.Errorf("p99 = %v, want +Inf (two failed requests lie beyond it)", st.p99)
	}
	// 90 timer-driven samples 1..99 µs except multiples of 10; rank
	// ceil(0.99*90) = 90 is the largest, 99 µs.
	if st.lateP99 != 0.099 {
		t.Errorf("lateness p99 = %v ms, want 0.099", st.lateP99)
	}
	// 98 completions, the last at 970 ms + 98 ms.
	if want := 98 / 1.068; math.Abs(st.achievedRPS-want) > 1e-9 {
		t.Errorf("achieved = %v req/s, want %v", st.achievedRPS, want)
	}
	outs[0].err = errors.New("refused")
	if st := summarize(outs); st.failed != 3 {
		t.Errorf("transport error not counted: failed %d", st.failed)
	}
}

// TestWindowedMedianOfQuantiles: each one-second window yields its own
// quantile and the statistic is their median, so one window spoiled by a
// stall does not move it.
func TestWindowedMedianOfQuantiles(t *testing.T) {
	var outs []outcome
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			lat := time.Duration(w+1) * time.Millisecond
			if w == 4 {
				lat = time.Second // the stalled window
			}
			outs = append(outs, outcome{sent: true, status: http.StatusOK, latency: lat,
				due: time.Duration(w)*time.Second + time.Duration(i)*10*time.Millisecond})
		}
	}
	if got := windowed(outs, time.Second, 0.99); got != 3 {
		t.Errorf("windowed p99 = %v ms, want 3 (the median of 1, 2, 3, 4, 1000)", got)
	}
	// Two failures in window 0 put its p99 at infinity: the median moves
	// to the next window up.
	outs[0].status = http.StatusInternalServerError
	outs[1].err = errors.New("reset")
	if got := windowed(outs, time.Second, 0.99); got != 4 {
		t.Errorf("with two failures in window 0: %v ms, want 4", got)
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "latency_ms_p50", Better: "lower", Bound: 0.10}
	thr := metricDef{Name: "cells_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lat, base, scale(base, 1.05), "within-bound"},
		{lat, base, scale(base, 1.2), "regressed"},
		{thr, base, scale(base, 0.8), "regressed"},
		{thr, base, scale(base, 1.2), "within-bound"},
		{lat, []float64{50, 100, 150, 200}, []float64{100, 100, 100, 100}, "unresolved"},
		{lat, []float64{50, 100, 150, 200}, []float64{10, 10, 10, 10}, "within-bound"},
		{metricDef{Name: "store.get_n", Better: "lower"}, base, base, "-"},
	} {
		if got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.def.Name, tc.a, tc.b, got, tc.want)
		}
	}
	if got := wins(lat, base, scale(base, 0.9)); got != 10 {
		t.Errorf("wins = %d, want 10", got)
	}
}

func TestStripFlag(t *testing.T) {
	got := stripFlag([]string{"-seed", "3", "-o", "x.json", "--rev=abc", "-trace", "1"}, "o", "rev")
	want := []string{"-seed", "3", "-trace", "1"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
