// Request metrics for the campaign service. Every routed request is
// recorded as one flat RequestSample (endpoint, method, status, cache
// tier, queue wait, duration) — the shape is deliberately CSV-friendly so
// samples can be logged or shipped as-is. Samples aggregate into
// per-endpoint and per-cache-tier summaries with percentile estimates
// over a sliding window of recent durations, exposed two ways:
//
//	GET /metrics    Prometheus-style text exposition
//	GET /v1/stats   JSON (ServerStats), alongside the cache/cohort counters
package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"abftckpt/internal/scenario"
)

// RequestSample is one served HTTP request, flattened for aggregation,
// CSV logging, or structured shipping. Durations are milliseconds.
type RequestSample struct {
	// Endpoint is the route label ("campaigns", "cells", "jobs",
	// "artifacts", "platforms", "stats", "metrics").
	Endpoint string `json:"endpoint"`
	// Method is the HTTP method.
	Method string `json:"method"`
	// Status is the response status code.
	Status int `json:"status"`
	// Tier is the cache tier that served a cell request ("mem", "disk",
	// "exec", "coalesced"); empty for other endpoints.
	Tier string `json:"tier,omitempty"`
	// QueueWaitMS is the time spent waiting for an admission slot before
	// the handler did any work (0 when admission was immediate).
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// DurationMS is the total handler time, queue wait included.
	DurationMS float64 `json:"duration_ms"`
}

// latWindowSize bounds the per-label sliding window of recent durations
// used for percentile estimates. 1024 float64s per label is ~8 KB.
const latWindowSize = 1024

// latWindow is a fixed-size ring of recent durations. Percentiles are
// computed over the window on demand; counters are cumulative.
type latWindow struct {
	ring [latWindowSize]float64
	n    int64 // total observations; ring index is n % latWindowSize
}

func (w *latWindow) observe(ms float64) {
	w.ring[w.n%latWindowSize] = ms
	w.n++
}

// quantiles returns the given quantiles over the window (sorted copy).
// All zeros when nothing has been observed.
func (w *latWindow) quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	n := w.n
	if n == 0 {
		return out
	}
	if n > latWindowSize {
		n = latWindowSize
	}
	sorted := make([]float64, n)
	copy(sorted, w.ring[:n])
	sort.Float64s(sorted)
	for i, q := range qs {
		idx := int(q * float64(n-1))
		out[i] = sorted[idx]
	}
	return out
}

// labelMetrics aggregates requests sharing one label (an endpoint or a
// cache tier).
type labelMetrics struct {
	requests   int64
	rejected   int64 // 429s
	errors     int64 // status >= 400, 429 excluded (rejections are not errors)
	sumMS      float64
	maxMS      float64
	sumQueueMS float64
	byStatus   map[int]int64
	window     latWindow
	// queueWindow holds recent positive queue waits only: its quantiles
	// answer "how long do requests that had to wait actually wait", which
	// drives the Retry-After hint on 429s. Zero-wait requests would drown
	// the signal.
	queueWindow latWindow
}

func newLabelMetrics() *labelMetrics {
	return &labelMetrics{byStatus: map[int]int64{}}
}

func (l *labelMetrics) observe(status int, queueMS, durMS float64) {
	l.requests++
	l.byStatus[status]++
	switch {
	case status == 429:
		l.rejected++
	case status >= 400:
		l.errors++
	}
	l.sumMS += durMS
	l.sumQueueMS += queueMS
	if durMS > l.maxMS {
		l.maxMS = durMS
	}
	l.window.observe(durMS)
	if queueMS > 0 {
		l.queueWindow.observe(queueMS)
	}
}

// LatencySummary is the JSON shape of one aggregated label in /v1/stats.
// Flat on purpose: one row per label, ready for a CSV or a spreadsheet.
type LatencySummary struct {
	Endpoint       string  `json:"endpoint,omitempty"`
	Tier           string  `json:"tier,omitempty"`
	Requests       int64   `json:"requests"`
	Errors         int64   `json:"errors"`
	Rejected       int64   `json:"rejected"`
	AvgMS          float64 `json:"avg_ms"`
	P50MS          float64 `json:"p50_ms"`
	P90MS          float64 `json:"p90_ms"`
	P99MS          float64 `json:"p99_ms"`
	MaxMS          float64 `json:"max_ms"`
	AvgQueueWaitMS float64 `json:"avg_queue_wait_ms"`
}

func (l *labelMetrics) summary() LatencySummary {
	s := LatencySummary{
		Requests: l.requests,
		Errors:   l.errors,
		Rejected: l.rejected,
		MaxMS:    l.maxMS,
	}
	if l.requests > 0 {
		s.AvgMS = l.sumMS / float64(l.requests)
		s.AvgQueueWaitMS = l.sumQueueMS / float64(l.requests)
	}
	q := l.window.quantiles(0.50, 0.90, 0.99)
	s.P50MS, s.P90MS, s.P99MS = q[0], q[1], q[2]
	return s
}

// Metrics aggregates request samples. Safe for concurrent use; one
// instance lives on the Server.
type Metrics struct {
	mu        sync.Mutex
	endpoints map[string]*labelMetrics
	tiers     map[string]*labelMetrics // successful cell requests by tier
}

// NewMetrics returns an empty aggregator.
func NewMetrics() *Metrics {
	return &Metrics{
		endpoints: map[string]*labelMetrics{},
		tiers:     map[string]*labelMetrics{},
	}
}

// Observe folds one request sample into the aggregates.
func (m *Metrics) Observe(s RequestSample) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.endpoints[s.Endpoint]
	if ep == nil {
		ep = newLabelMetrics()
		m.endpoints[s.Endpoint] = ep
	}
	ep.observe(s.Status, s.QueueWaitMS, s.DurationMS)
	if s.Tier != "" && s.Status < 400 {
		tm := m.tiers[s.Tier]
		if tm == nil {
			tm = newLabelMetrics()
			m.tiers[s.Tier] = tm
		}
		tm.observe(s.Status, s.QueueWaitMS, s.DurationMS)
	}
}

// QueueWaitP50MS returns the sliding-window median of the positive
// admission queue waits observed on the endpoint, or 0 when none have
// been observed.
func (m *Metrics) QueueWaitP50MS(endpoint string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.endpoints[endpoint]
	if ep == nil {
		return 0
	}
	return ep.queueWindow.quantiles(0.50)[0]
}

// EndpointSummaries returns one summary per endpoint label, sorted by
// label for stable output.
func (m *Metrics) EndpointSummaries() []LatencySummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]LatencySummary, 0, len(m.endpoints))
	for _, name := range sortedKeys(m.endpoints) {
		s := m.endpoints[name].summary()
		s.Endpoint = name
		out = append(out, s)
	}
	return out
}

// TierSummaries returns one summary per cache tier that served a
// successful cell request, sorted by tier.
func (m *Metrics) TierSummaries() []LatencySummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]LatencySummary, 0, len(m.tiers))
	for _, name := range sortedKeys(m.tiers) {
		s := m.tiers[name].summary()
		s.Tier = name
		out = append(out, s)
	}
	return out
}

func sortedKeys(m map[string]*labelMetrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promGauges carries the point-in-time server state into the exposition
// (the cumulative request aggregates live in Metrics itself).
type promGauges struct {
	QueuedJobs    int
	RunningJobs   int
	InflightCells int
	Draining      bool
	Cache         scenario.CacheStats
	Cohorts       CohortStats
	Adaptive      AdaptiveStats
	Workers       []WorkerStatus
}

// WritePromText writes the Prometheus text exposition format: cumulative
// request counters by endpoint and status, duration summaries (window
// quantiles plus exact sum/count), queue-wait totals, admission gauges,
// and the cache/cohort counters. Label values contain no characters that
// need escaping.
func (m *Metrics) WritePromText(w io.Writer, g promGauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP ftserve_requests_total Requests served, by endpoint and status.")
	fmt.Fprintln(w, "# TYPE ftserve_requests_total counter")
	for _, name := range sortedKeys(m.endpoints) {
		ep := m.endpoints[name]
		statuses := make([]int, 0, len(ep.byStatus))
		for st := range ep.byStatus {
			statuses = append(statuses, st)
		}
		sort.Ints(statuses)
		for _, st := range statuses {
			fmt.Fprintf(w, "ftserve_requests_total{endpoint=%q,status=\"%d\"} %d\n", name, st, ep.byStatus[st])
		}
	}

	fmt.Fprintln(w, "# HELP ftserve_request_duration_ms Request duration summary, by endpoint (quantiles over a sliding window).")
	fmt.Fprintln(w, "# TYPE ftserve_request_duration_ms summary")
	for _, name := range sortedKeys(m.endpoints) {
		ep := m.endpoints[name]
		q := ep.window.quantiles(0.50, 0.90, 0.99)
		for i, quant := range []string{"0.5", "0.9", "0.99"} {
			fmt.Fprintf(w, "ftserve_request_duration_ms{endpoint=%q,quantile=%q} %s\n", name, quant, promFloat(q[i]))
		}
		fmt.Fprintf(w, "ftserve_request_duration_ms_sum{endpoint=%q} %s\n", name, promFloat(ep.sumMS))
		fmt.Fprintf(w, "ftserve_request_duration_ms_count{endpoint=%q} %d\n", name, ep.requests)
	}

	fmt.Fprintln(w, "# HELP ftserve_queue_wait_ms_total Total time requests waited for an admission slot, by endpoint.")
	fmt.Fprintln(w, "# TYPE ftserve_queue_wait_ms_total counter")
	for _, name := range sortedKeys(m.endpoints) {
		fmt.Fprintf(w, "ftserve_queue_wait_ms_total{endpoint=%q} %s\n", name, promFloat(m.endpoints[name].sumQueueMS))
	}

	fmt.Fprintln(w, "# HELP ftserve_rejected_total Requests rejected by admission control (429), by endpoint.")
	fmt.Fprintln(w, "# TYPE ftserve_rejected_total counter")
	for _, name := range sortedKeys(m.endpoints) {
		fmt.Fprintf(w, "ftserve_rejected_total{endpoint=%q} %d\n", name, m.endpoints[name].rejected)
	}

	fmt.Fprintln(w, "# HELP ftserve_cell_duration_ms Successful cell-request duration summary, by cache tier.")
	fmt.Fprintln(w, "# TYPE ftserve_cell_duration_ms summary")
	for _, name := range sortedKeys(m.tiers) {
		tm := m.tiers[name]
		q := tm.window.quantiles(0.50, 0.90, 0.99)
		for i, quant := range []string{"0.5", "0.9", "0.99"} {
			fmt.Fprintf(w, "ftserve_cell_duration_ms{tier=%q,quantile=%q} %s\n", name, quant, promFloat(q[i]))
		}
		fmt.Fprintf(w, "ftserve_cell_duration_ms_sum{tier=%q} %s\n", name, promFloat(tm.sumMS))
		fmt.Fprintf(w, "ftserve_cell_duration_ms_count{tier=%q} %d\n", name, tm.requests)
	}

	fmt.Fprintln(w, "# HELP ftserve_jobs_queued Campaign jobs waiting for a run slot.")
	fmt.Fprintln(w, "# TYPE ftserve_jobs_queued gauge")
	fmt.Fprintf(w, "ftserve_jobs_queued %d\n", g.QueuedJobs)
	fmt.Fprintln(w, "# HELP ftserve_jobs_running Campaign jobs currently executing.")
	fmt.Fprintln(w, "# TYPE ftserve_jobs_running gauge")
	fmt.Fprintf(w, "ftserve_jobs_running %d\n", g.RunningJobs)
	fmt.Fprintln(w, "# HELP ftserve_inflight_cells Synchronous cell requests currently holding an admission slot.")
	fmt.Fprintln(w, "# TYPE ftserve_inflight_cells gauge")
	fmt.Fprintf(w, "ftserve_inflight_cells %d\n", g.InflightCells)
	fmt.Fprintln(w, "# HELP ftserve_draining Whether the server is draining for shutdown (1) or serving normally (0).")
	fmt.Fprintln(w, "# TYPE ftserve_draining gauge")
	draining := 0
	if g.Draining {
		draining = 1
	}
	fmt.Fprintf(w, "ftserve_draining %d\n", draining)

	if len(g.Workers) > 0 {
		fmt.Fprintln(w, "# HELP ftserve_worker_shards_total Shards completed per worker (coordinator mode).")
		fmt.Fprintln(w, "# TYPE ftserve_worker_shards_total counter")
		for _, ws := range g.Workers {
			fmt.Fprintf(w, "ftserve_worker_shards_total{worker=%q} %d\n", ws.URL, ws.Shards)
		}
		fmt.Fprintln(w, "# HELP ftserve_worker_cells_total Cells dispatched per worker, by outcome the worker reported.")
		fmt.Fprintln(w, "# TYPE ftserve_worker_cells_total counter")
		for _, ws := range g.Workers {
			fmt.Fprintf(w, "ftserve_worker_cells_total{worker=%q,outcome=\"executed\"} %d\n", ws.URL, ws.Executed)
			fmt.Fprintf(w, "ftserve_worker_cells_total{worker=%q,outcome=\"cached\"} %d\n", ws.URL, ws.Cached)
		}
		fmt.Fprintln(w, "# HELP ftserve_worker_errors_total Failed dispatch attempts per worker.")
		fmt.Fprintln(w, "# TYPE ftserve_worker_errors_total counter")
		for _, ws := range g.Workers {
			fmt.Fprintf(w, "ftserve_worker_errors_total{worker=%q} %d\n", ws.URL, ws.Errors)
		}
		fmt.Fprintln(w, "# HELP ftserve_worker_breaker_state Circuit-breaker state per worker (1 on the active state).")
		fmt.Fprintln(w, "# TYPE ftserve_worker_breaker_state gauge")
		for _, ws := range g.Workers {
			for _, st := range []string{BreakerClosed, BreakerOpen, BreakerHalfOpen} {
				v := 0
				if ws.Breaker == st {
					v = 1
				}
				fmt.Fprintf(w, "ftserve_worker_breaker_state{worker=%q,state=%q} %d\n", ws.URL, st, v)
			}
		}
		fmt.Fprintln(w, "# HELP ftserve_worker_breaker_opens_total Circuit-breaker transitions into open, per worker.")
		fmt.Fprintln(w, "# TYPE ftserve_worker_breaker_opens_total counter")
		for _, ws := range g.Workers {
			fmt.Fprintf(w, "ftserve_worker_breaker_opens_total{worker=%q} %d\n", ws.URL, ws.BreakerOpens)
		}
	}

	fmt.Fprintln(w, "# HELP ftserve_cache_requests_total Cell-cache outcomes, by tier.")
	fmt.Fprintln(w, "# TYPE ftserve_cache_requests_total counter")
	fmt.Fprintf(w, "ftserve_cache_requests_total{tier=\"mem\"} %d\n", g.Cache.MemHits)
	fmt.Fprintf(w, "ftserve_cache_requests_total{tier=\"disk\"} %d\n", g.Cache.DiskHits)
	fmt.Fprintf(w, "ftserve_cache_requests_total{tier=\"exec\"} %d\n", g.Cache.Executed)
	fmt.Fprintf(w, "ftserve_cache_requests_total{tier=\"coalesced\"} %d\n", g.Cache.Coalesced)
	fmt.Fprintln(w, "# HELP ftserve_cache_disk_reads_total Disk-tier lookups, hit or miss.")
	fmt.Fprintln(w, "# TYPE ftserve_cache_disk_reads_total counter")
	fmt.Fprintf(w, "ftserve_cache_disk_reads_total %d\n", g.Cache.DiskReads)
	fmt.Fprintln(w, "# HELP ftserve_cache_store_errors_total Executed cells whose result could not be written to the disk tier.")
	fmt.Fprintln(w, "# TYPE ftserve_cache_store_errors_total counter")
	fmt.Fprintf(w, "ftserve_cache_store_errors_total %d\n", g.Cache.StoreErrors)
	fmt.Fprintln(w, "# HELP ftserve_cache_exec_errors_total Cell executions that failed outright.")
	fmt.Fprintln(w, "# TYPE ftserve_cache_exec_errors_total counter")
	fmt.Fprintf(w, "ftserve_cache_exec_errors_total %d\n", g.Cache.ExecErrors)
	fmt.Fprintln(w, "# HELP ftserve_cache_corrupt_entries_total Damaged store entries detected (checksum mismatch or undecodable bytes), each re-executed as a miss.")
	fmt.Fprintln(w, "# TYPE ftserve_cache_corrupt_entries_total counter")
	fmt.Fprintf(w, "ftserve_cache_corrupt_entries_total %d\n", g.Cache.CorruptEntries)

	fmt.Fprintln(w, "# HELP ftserve_cohort_arenas_built_total Trace cohorts walked jointly over one shared failure stream by finished jobs.")
	fmt.Fprintln(w, "# TYPE ftserve_cohort_arenas_built_total counter")
	fmt.Fprintf(w, "ftserve_cohort_arenas_built_total %d\n", g.Cohorts.Built)
	fmt.Fprintln(w, "# HELP ftserve_cohort_replayed_cells_total Simulation cells executed in a joint trace-cohort walk.")
	fmt.Fprintln(w, "# TYPE ftserve_cohort_replayed_cells_total counter")
	fmt.Fprintf(w, "ftserve_cohort_replayed_cells_total %d\n", g.Cohorts.ReplayedCells)

	fmt.Fprintln(w, "# HELP ftserve_adaptive_cells_total Executed cells that ran under an adaptive-precision block.")
	fmt.Fprintln(w, "# TYPE ftserve_adaptive_cells_total counter")
	fmt.Fprintf(w, "ftserve_adaptive_cells_total %d\n", g.Adaptive.Cells)
	fmt.Fprintln(w, "# HELP ftserve_adaptive_replicas_used_total Replicas actually spent by adaptive-precision cells.")
	fmt.Fprintln(w, "# TYPE ftserve_adaptive_replicas_used_total counter")
	fmt.Fprintf(w, "ftserve_adaptive_replicas_used_total %d\n", g.Adaptive.ReplicasUsed)
	fmt.Fprintln(w, "# HELP ftserve_adaptive_replicas_cap_total Replicas a fixed-rep execution at the cap would have spent.")
	fmt.Fprintln(w, "# TYPE ftserve_adaptive_replicas_cap_total counter")
	fmt.Fprintf(w, "ftserve_adaptive_replicas_cap_total %d\n", g.Adaptive.ReplicasCap)
}

// promFloat renders a float without exponent notation surprises; trailing
// zeros are trimmed for readability.
func promFloat(v float64) string {
	s := fmt.Sprintf("%.6f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}
