package main

import (
	"math"
	"sort"
	"time"
)

// metricDef describes one reported metric. The two tables below are the
// source of BENCHMARK.json's end_to_end and per_layer lists;
// TestBenchmarkJSONMatchesTables keeps the file and the tables equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the engine sees. Every workload
// reports every one of them; README.md gives each workload's reading.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_ms_p10", "ms", "lower", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer are the per-layer metrics of a traced run. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"tail.latency_ms_p90", "ms", "lower", 0},
	{"tail.latency_ms_p99", "ms", "lower", 0},
	{"scenario.load_ms", "ms", "lower", 0},
	{"scenario.plan_ms", "ms", "lower", 0},
	{"scenario.hash_us", "us", "lower", 0},
	{"scenario.preload_ms", "ms", "lower", 0},
	{"scenario.assemble_ms", "ms", "lower", 0},
	{"scenario.exec_ms", "ms", "lower", 0},
	{"scenario.cells_executed", "count", "lower", 0},
	{"scenario.exec_us_per_cell", "us", "lower", 0},
	{"scenario.exec_self_ms", "ms", "lower", 0},
	{"scenario.tail_ms", "ms", "lower", 0},
	{"scenario.render_ms", "ms", "lower", 0},
	{"scenario.artifact_bytes", "bytes", "lower", 0},
	{"cache.mem_hits", "count", "higher", 0},
	{"cache.disk_reads", "count", "lower", 0},
	{"cache.executed", "count", "lower", 0},
	{"cache.coalesced", "count", "lower", 0},
	{"cache.corrupt", "count", "lower", 0},
	{"store.get_n", "count", "lower", 0},
	{"store.get_ms", "ms", "lower", 0},
	{"store.get_bytes", "bytes", "lower", 0},
	{"store.put_n", "count", "lower", 0},
	{"store.put_ms", "ms", "lower", 0},
	{"store.put_bytes", "bytes", "lower", 0},
	{"store.batch_n", "count", "lower", 0},
	{"store.checksum_ms", "ms", "lower", 0},
	{"store.remote_requests", "count", "lower", 0},
	{"store.remote_ms", "ms", "lower", 0},
	{"store.remote_bytes", "bytes", "lower", 0},
	{"sim.cohorts", "count", "higher", 0},
	{"sim.cohort_cells", "count", "higher", 0},
	{"sim.replicas_per_s", "1/s", "higher", 0},
	{"server.cells_ms_p50_mem", "ms", "lower", 0},
	{"server.cells_ms_p99_mem", "ms", "lower", 0},
	{"server.cells_ms_p50_exec", "ms", "lower", 0},
	{"server.cells_ms_p99_exec", "ms", "lower", 0},
	{"server.queue_wait_ms_avg", "ms", "lower", 0},
	{"server.rejected", "count", "lower", 0},
	{"load.lateness_ms_p99", "ms", "lower", 0},
	{"load.achieved_rps", "req/s", "higher", 0},
	{"load.throughput_rps", "req/s", "higher", 0},
	{"load.max_rps_slo", "req/s", "higher", 0},
	{"shard.requests", "count", "lower", 0},
	{"shard.ms_sum", "ms", "lower", 0},
	{"shard.ms_p50", "ms", "lower", 0},
	{"shard.cells_per_request", "cells", "higher", 0},
	{"shard.req_bytes", "bytes", "lower", 0},
	{"shard.resp_bytes", "bytes", "lower", 0},
	{"shard.non200", "count", "lower", 0},
	{"runtime.alloc_mb_per_run", "MB", "lower", 0},
	{"runtime.gc_cycles_per_run", "count", "lower", 0},
	{"runtime.cpu_util", "fraction", "higher", 0},
	{"trace.coverage", "fraction", "higher", 0},
	{"trace.overhead_ms", "ms", "lower", 0},
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q of the samples at or below it. xs is
// sorted in place; an empty sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

// quartiles returns the three cut points of xs by the exclusive method of
// Python's statistics.quantiles(xs, n=4), the statistic the comparison
// protocol is stated in. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		out[i-1] = (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return out[0], out[1], out[2], true
}

// median of xs (the middle quartile for two or more samples).
func median(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	_, q2, _, _ := quartiles(xs)
	return q2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open time span [start, end) in nanoseconds on one
// clock.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the union of ivs covers. Overlaps
// count once, so spans of parallel workers never cover more than the
// window.
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}
