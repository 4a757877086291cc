// Sharded campaign execution. A server becomes a coordinator when its
// Config lists worker base URLs: campaign jobs still expand, deduplicate,
// preload and assemble locally, but cell execution is dispatched. The
// runner packs whole trace cohorts into shards of about 1/(4 · Workers)
// of the cells and simulation work left to run, within per-shard cell,
// work and response-size budgets (see scenario.Runner.ExecBatch), so a
// cohort's shared failure process still materializes once, on whichever
// worker receives it, and a worker reads and writes its shard's entries
// with one store call each way (scenario.ExecuteShard). Workers are plain
// ftserve instances exposing POST /v1/shards; pointing every node at one
// shared result store (see internal/store) deduplicates across the fleet
// and lets a restarted coordinator reuse everything already computed.
//
// Artifact bytes are independent of the dispatch: the runner assembles in
// campaign order from per-cell results, and results round-trip exactly
// (scenario.JSONFloat pins ±Inf/NaN and shortest-form floats), so a
// sharded run's merged CSVs are byte-identical to a single-node run's.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"abftckpt/internal/scenario"
)

// DefaultShardTimeout bounds one shard round-trip (a shard of simulation
// cells can legitimately run minutes).
const DefaultShardTimeout = 15 * time.Minute

// dispatchRounds is how many passes over the worker list a shard attempts
// before the job fails; later rounds back off so a transiently saturated
// fleet (429s) gets room to drain.
const dispatchRounds = 3

// dispatchBackoffBase is the backoff unit between dispatch rounds: the
// wait before round r is a full-jitter draw from [0, base × 2^(r−2)],
// raised to the largest Retry-After any worker sent in the previous
// round. Full jitter (rather than jittered-around-the-midpoint) spreads
// a fleet of retrying coordinators instead of re-synchronizing them.
const dispatchBackoffBase = 100 * time.Millisecond

// probeTimeout bounds a half-open /healthz probe; a worker that cannot
// answer its liveness check within this is not ready for real shards.
const probeTimeout = 2 * time.Second

// shardRequest is the POST /v1/shards request body.
type shardRequest struct {
	// Cells are the cells to execute, at most scenario.MaxShardCells. The
	// coordinator sends whole trace cohorts, usually several per request.
	Cells []scenario.CellSpec `json:"cells"`
}

// WorkerStatus is one worker's cumulative dispatch counters, surfaced in
// /v1/stats and /metrics on a coordinator.
type WorkerStatus struct {
	URL string `json:"url"`
	// Shards counts successfully completed shard round-trips.
	Shards int64 `json:"shards"`
	// Cells counts cells across those shards; Executed and Cached
	// partition them by what the worker reported.
	Cells    int64 `json:"cells"`
	Executed int64 `json:"executed"`
	Cached   int64 `json:"cached"`
	// Errors counts failed dispatch attempts (transport errors, non-200
	// statuses, malformed responses).
	Errors int64 `json:"errors"`
	// Breaker is the worker's circuit state: "closed", "open" or
	// "half-open". BreakerOpens counts transitions into "open" since the
	// coordinator started.
	Breaker      string `json:"breaker,omitempty"`
	BreakerOpens int64  `json:"breaker_opens"`
}

// handleShards executes one shard of cells on this worker through the
// shared cache. The whole shard holds one cell-admission slot, like a
// synchronous cell request.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining; not accepting new work")
		return
	}
	if !s.admitCell(w, r, "shards") {
		return
	}
	defer func() { <-s.cellSem }()

	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req shardRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"shard body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "parse shard: %v", err)
		return
	}
	if len(req.Cells) == 0 {
		writeError(w, http.StatusBadRequest, "shard has no cells")
		return
	}
	if len(req.Cells) > scenario.MaxShardCells {
		writeError(w, http.StatusBadRequest,
			"shard has %d cells, limit %d", len(req.Cells), scenario.MaxShardCells)
		return
	}
	for i := range req.Cells {
		if err := req.Cells[i].Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "cell %d: %v", i, err)
			return
		}
	}
	simWorkers := s.workers
	if simWorkers <= 0 {
		simWorkers = runtime.NumCPU()
	}
	out, err := scenario.ExecuteShard(s.cache, req.Cells, simWorkers)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Only a coordinator reads the outcome, and its decoder skips
	// whitespace: write it compact.
	encodeJSON(w, http.StatusOK, out, "")
}

// workerStatusError is a non-200 answer from a worker. A 4xx means the
// worker is alive and answered — a 429 rate limit, or a rejected request
// (validation, version skew, oversized body) — so the attempt fails
// without tripping the breaker; a 5xx counts against it. A 429's
// Retry-After raises the next round's backoff.
type workerStatusError struct {
	code       int
	status     string
	detail     []byte
	retryAfter time.Duration // 429 only
}

func (e *workerStatusError) Error() string {
	if e.code == http.StatusTooManyRequests {
		return fmt.Sprintf("status %s (retry after %s)", e.status, e.retryAfter)
	}
	return fmt.Sprintf("status %s: %s", e.status, e.detail)
}

// parseRetryAfter reads a Retry-After header (delta-seconds or HTTP
// date), defaulting to one second when absent or malformed.
func parseRetryAfter(h string) time.Duration {
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return time.Second
}

// dispatchShard sends one shard of cells to a worker: round-robin pick,
// failover through the rest of the fleet, bounded retry rounds with
// full-jitter exponential backoff that honors the largest Retry-After
// seen in the round. Workers behind an open circuit breaker are skipped
// (half-open probes re-admit them via /healthz); if every breaker is
// open the round attempts the whole fleet anyway — with nothing
// admissible, a desperation attempt beats certain failure. All waits
// abort promptly on coordinator drain or job cancellation. On success
// the per-worker and per-job counters advance and the results come back
// in spec order; after every attempt fails, the last error surfaces (and
// the job fails).
func (s *Server) dispatchShard(j *job, specs []scenario.CellSpec) ([]scenario.CellResult, error) {
	body, err := json.Marshal(shardRequest{Cells: specs})
	if err != nil {
		return nil, fmt.Errorf("server: marshal shard: %w", err)
	}
	ctx := context.Background()
	if j != nil {
		ctx = j.ctx
	}
	n := len(s.workerURLs)
	start := int(s.rr.Add(1)-1) % n
	var lastErr error
	var retryAfterMax time.Duration
	for round := 1; round <= dispatchRounds; round++ {
		if round > 1 {
			if err := s.backoffWait(ctx, round, retryAfterMax); err != nil {
				if lastErr != nil {
					return nil, fmt.Errorf("%w (last worker error: %v)", err, lastErr)
				}
				return nil, err
			}
		}
		retryAfterMax = 0
		for desperate := 0; desperate < 2; desperate++ {
			attempted := false
			for k := 0; k < n; k++ {
				i := (start + k) % n
				br := s.breakers[i]
				if desperate == 0 {
					attempt, probe := br.admit()
					if !attempt {
						continue
					}
					if probe && !s.probeWorker(ctx, i) {
						lastErr = fmt.Errorf("worker %s: health probe failed", s.workerURLs[i])
						continue
					}
				}
				attempted = true
				results, err := s.attemptShard(j, i, specs, body, ctx)
				if err == nil {
					return results, nil
				}
				if ctx.Err() != nil {
					return nil, fmt.Errorf("server: dispatch aborted: %w (last worker error: %v)", ctx.Err(), err)
				}
				var se *workerStatusError
				if errors.As(err, &se) && se.retryAfter > retryAfterMax {
					retryAfterMax = se.retryAfter
				}
				lastErr = err
			}
			if attempted {
				break
			}
		}
	}
	return nil, fmt.Errorf("server: shard failed on all %d workers: %w", n, lastErr)
}

// attemptShard performs one dispatch attempt against worker i, feeding
// its breaker and the per-worker/per-job counters.
func (s *Server) attemptShard(j *job, i int, specs []scenario.CellSpec, body []byte, ctx context.Context) ([]scenario.CellResult, error) {
	url := s.workerURLs[i]
	since := s.breakers[i].begin()
	resp, err := s.postShard(ctx, url, body)
	if err == nil && len(resp.Results) != len(specs) {
		err = fmt.Errorf("%d results for %d cells", len(resp.Results), len(specs))
	}
	if err != nil {
		s.mu.Lock()
		s.workerStats[i].Errors++
		s.mu.Unlock()
		// A 4xx (a 429 included) means the worker answered: it neither
		// trips the breaker nor counts toward consecutive failures.
		var se *workerStatusError
		if !errors.As(err, &se) || se.code >= 500 {
			s.breakers[i].failure(since)
		}
		return nil, fmt.Errorf("worker %s: %w", url, err)
	}
	s.breakers[i].success(since)
	s.mu.Lock()
	ws := s.workerStats[i]
	ws.Shards++
	ws.Cells += int64(len(specs))
	ws.Executed += int64(resp.Executed)
	ws.Cached += int64(resp.Cached)
	s.mu.Unlock()
	if j != nil {
		j.onShard(url, len(specs), resp.Executed, resp.Cached)
	}
	return resp.Results, nil
}

// backoffWait sleeps the inter-round backoff: a full-jitter draw from
// [0, base × 2^(round−2)], raised to retryAfter when a worker asked for
// more. The wait aborts promptly when the coordinator begins draining or
// the job is cancelled — a retry storm must not outlive either.
func (s *Server) backoffWait(ctx context.Context, round int, retryAfter time.Duration) error {
	base := dispatchBackoffBase << (round - 2)
	wait := time.Duration(rand.Int64N(int64(base) + 1))
	if retryAfter > wait {
		wait = retryAfter
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-s.drainCh:
		return errors.New("server: dispatch aborted: coordinator draining")
	case <-ctx.Done():
		return fmt.Errorf("server: dispatch aborted: %w", ctx.Err())
	}
}

// probeWorker resolves a half-open breaker with a bounded /healthz
// round-trip, and reports whether the worker was re-admitted.
func (s *Server) probeWorker(ctx context.Context, i int) bool {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, s.workerURLs[i]+"/healthz", nil)
	if err != nil {
		s.breakers[i].probeResult(false)
		return false
	}
	resp, err := s.shardClient.Do(req)
	healthy := false
	if err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024)) //nolint:errcheck
		resp.Body.Close()
		healthy = resp.StatusCode == http.StatusOK
	}
	s.breakers[i].probeResult(healthy)
	return healthy
}

// postShard performs one shard round-trip against one worker. The
// request carries ctx, so job cancellation and drain force-fail abort
// in-flight round-trips, not just the waits between them.
func (s *Server) postShard(ctx context.Context, workerURL string, body []byte) (*scenario.ShardOutcome, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := s.shardClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	// Read one byte past the cap: a body at exactly maxBodyBytes stays
	// intact, anything larger is reported as oversized instead of being
	// silently clipped into a confusing JSON decode error.
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	if len(data) > maxBodyBytes {
		return nil, fmt.Errorf("response exceeds %d bytes", maxBodyBytes)
	}
	if httpResp.StatusCode != http.StatusOK {
		se := &workerStatusError{code: httpResp.StatusCode, status: httpResp.Status}
		if se.code == http.StatusTooManyRequests {
			se.retryAfter = parseRetryAfter(httpResp.Header.Get("Retry-After"))
		} else {
			se.detail = bytes.TrimSpace(data[:min(len(data), 256)])
		}
		return nil, se
	}
	var out scenario.ShardOutcome
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return &out, nil
}

// workerStatuses snapshots the per-worker counters, sorted by URL for
// stable output. Empty (not nil-panicking) outside coordinator mode.
func (s *Server) workerStatuses() []WorkerStatus {
	s.mu.Lock()
	out := make([]WorkerStatus, 0, len(s.workerStats))
	for _, ws := range s.workerStats {
		out = append(out, *ws)
	}
	s.mu.Unlock()
	for i := range out {
		out[i].Breaker, out[i].BreakerOpens = s.breakers[i].snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
