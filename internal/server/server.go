// Package server exposes the scenario engine over HTTP: asynchronous
// campaign jobs with streaming per-scenario progress, synchronous
// single-cell evaluation through the two-tier cell cache, artifact
// download, and the platform catalogue.
//
// Endpoints (all request and response bodies are JSON unless noted):
//
//	POST /v1/campaigns                     validate a campaign and run it
//	                                       asynchronously; 202 + job id
//	GET  /v1/jobs/{id}                     job progress: cells done/total,
//	                                       per-scenario status, artifacts
//	GET  /v1/jobs/{id}/artifacts/{name}    one artifact as a CSV stream
//	POST /v1/cells                         evaluate one cell synchronously
//	                                       (X-Cache reports the tier)
//	POST /v1/shards                        execute a batch of cells for a
//	                                       coordinator (see coordinator.go)
//	POST /v1/store/{get,put}               the result-store batch API over
//	                                       this server's second cache tier
//	                                       (mounted only when one exists)
//	GET  /v1/platforms                     the built-in platform catalogue
//	GET  /v1/stats                         cache/cohort counters plus server
//	                                       state and latency summaries
//	GET  /metrics                          Prometheus-style text exposition
//	GET  /healthz                          liveness probe (plain text)
//
// Every campaign job and every cell evaluation runs through one shared
// scenario.CellCache, so identical concurrent requests coalesce into a
// single execution and hot cells are served from memory without touching
// disk.
//
// The POST endpoints sit behind admission control: campaign submissions
// past the bounded job queue and cell evaluations past the in-flight
// limit are rejected with 429 + Retry-After instead of growing unbounded
// goroutine or queue state. Every routed request is timed into Metrics.
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abftckpt/internal/scenario"
	"abftckpt/internal/store"
)

// Config tunes a Server.
type Config struct {
	// Cache is the shared two-tier cell cache. When nil, the server
	// creates a memory-only cache (no disk tier).
	Cache *scenario.CellCache
	// Workers bounds cell-level parallelism per campaign job (0: NumCPU).
	Workers int
	// MaxJobs bounds retained jobs; when exceeded, the oldest finished
	// job is evicted (queued and running jobs are never dropped).
	// Default 64.
	MaxJobs int
	// MaxRunning bounds concurrently executing campaign jobs; submissions
	// past it are accepted and queue (state "queued"). Default 4.
	MaxRunning int
	// MaxQueued bounds campaign jobs waiting for a run slot; submissions
	// past it are rejected with 429 + Retry-After. Default 16.
	MaxQueued int
	// MaxInflightCells bounds concurrently served POST /v1/cells requests
	// (coalesced waiters hold a slot too); excess requests wait up to
	// AdmissionWait for a slot and are then rejected with 429 +
	// Retry-After. Default 4×NumCPU.
	MaxInflightCells int
	// AdmissionWait is how long a cell request may wait for an in-flight
	// slot before being rejected. Negative disables waiting (immediate
	// 429 when saturated). Default 100ms.
	AdmissionWait time.Duration
	// WorkerURLs, when non-empty, puts the server in coordinator mode:
	// campaign cell execution is dispatched to these worker base URLs
	// (plain ftserve instances) over POST /v1/shards instead of running
	// locally. Point coordinator and workers at one shared result store
	// so the fleet deduplicates work.
	WorkerURLs []string
	// ShardClient is the HTTP client used to dispatch shards (nil: a
	// client with DefaultShardTimeout). Coordinator mode only.
	ShardClient *http.Client
	// BreakerThreshold is how many consecutive dispatch failures open a
	// worker's circuit breaker (0: DefaultBreakerThreshold). Coordinator
	// mode only.
	BreakerThreshold int
}

// Defaults apply when Config leaves the corresponding bound unset.
const (
	DefaultMaxJobs       = 64
	DefaultMaxRunning    = 4
	DefaultMaxQueued     = 16
	DefaultAdmissionWait = 100 * time.Millisecond
)

// DefaultMaxInflightCells returns the default in-flight cell bound for
// this machine.
func DefaultMaxInflightCells() int { return 4 * runtime.NumCPU() }

// retryAfterSeconds is the fallback Retry-After hint on 429 responses,
// used until the endpoint has observed any admission queue waits: long
// enough for a queued job or a slow cell to drain, short enough that
// open-loop clients re-probe quickly. Once waits have been observed the
// hint tracks their sliding-window median instead (see retryAfter).
const retryAfterSeconds = 1

// Retry-After hints computed from observed queue waits are clamped to
// this range: at least a second (sub-second hints round to zero in many
// clients and stampede), at most 30 (a longer hint starves well-behaved
// clients on a hiccup).
const (
	minRetryAfterSeconds = 1
	maxRetryAfterSeconds = 30
)

// maxBodyBytes bounds request bodies on the POST endpoints; the paper's
// full campaign file is ~7 KB.
const maxBodyBytes = 8 << 20

// Server implements the campaign HTTP API. Create one with New and mount
// Handler on an http.Server.
type Server struct {
	cache         *scenario.CellCache
	workers       int
	maxJobs       int
	maxQueued     int
	admissionWait time.Duration
	runSem        chan struct{} // bounds concurrently executing jobs
	cellSem       chan struct{} // bounds in-flight synchronous cell requests
	metrics       *Metrics

	// draining refuses new work (503 on the POST endpoints) while running
	// jobs and cells finish; set once by BeginDrain during shutdown.
	// drainCh closes at the same moment so dispatch backoff waits abort
	// promptly instead of sleeping through the drain window.
	draining  atomic.Bool
	drainCh   chan struct{}
	drainOnce sync.Once

	// journalMu serializes read-modify-write cycles on the job journal
	// (see journal.go); never held together with mu.
	journalMu sync.Mutex

	// Coordinator mode (empty workerURLs: plain single-node server).
	workerURLs  []string
	breakers    []*breaker // parallel to workerURLs
	shardClient *http.Client
	rr          atomic.Uint64 // round-robin dispatch cursor

	mu          sync.Mutex
	workerStats []*WorkerStatus // parallel to workerURLs
	jobs        map[string]*job
	order       []string // job ids in creation order, for eviction
	queuedJobs  int      // jobs waiting for a run slot
	runningJobs int      // jobs holding a run slot
	cohorts     CohortStats
	adaptive    AdaptiveStats
}

// CohortStats counts trace-cohort work across all finished campaign jobs:
// Built is the number of cohorts walked jointly over one shared failure
// stream per replica (scenario.Report.Cohorts), ReplayedCells the number
// of simulation cells executed in those walks. The names, like the
// ftserve_cohort_arenas_built_total metric, date from when a cohort was
// replayed from a materialized arrival arena, which the simulator no
// longer has; they stay so that clients keep working. The counters are
// cumulative and monotone, like CacheStats.
type CohortStats struct {
	Built         int64 `json:"built"`
	ReplayedCells int64 `json:"replayed_cells"`
}

// AdaptiveStats counts adaptive-precision work across all finished campaign
// jobs: Cells is the number of executed cells that ran under a precision
// block, ReplicasUsed the replicas those cells actually spent, ReplicasCap
// the replicas a fixed-rep execution at the cap would have spent. Cap minus
// used is the cumulative replica savings from sequential stopping. The
// counters are cumulative and monotone, like CacheStats.
type AdaptiveStats struct {
	Cells        int64 `json:"cells"`
	ReplicasUsed int64 `json:"replicas_used"`
	ReplicasCap  int64 `json:"replicas_cap"`
}

// New returns a Server over the given configuration.
func New(cfg Config) *Server {
	cache := cfg.Cache
	if cache == nil {
		cache = scenario.NewCellCache("", 0)
	}
	maxJobs := cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = DefaultMaxJobs
	}
	maxRunning := cfg.MaxRunning
	if maxRunning <= 0 {
		maxRunning = DefaultMaxRunning
	}
	maxQueued := cfg.MaxQueued
	if maxQueued <= 0 {
		maxQueued = DefaultMaxQueued
	}
	maxInflight := cfg.MaxInflightCells
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflightCells()
	}
	wait := cfg.AdmissionWait
	if wait == 0 {
		wait = DefaultAdmissionWait
	}
	shardClient := cfg.ShardClient
	if shardClient == nil {
		shardClient = &http.Client{Timeout: DefaultShardTimeout}
	}
	s := &Server{
		cache:         cache,
		workers:       cfg.Workers,
		maxJobs:       maxJobs,
		maxQueued:     maxQueued,
		admissionWait: wait,
		runSem:        make(chan struct{}, maxRunning),
		cellSem:       make(chan struct{}, maxInflight),
		shardClient:   shardClient,
		metrics:       NewMetrics(),
		jobs:          map[string]*job{},
		drainCh:       make(chan struct{}),
	}
	for _, u := range cfg.WorkerURLs {
		u = strings.TrimRight(u, "/")
		s.workerURLs = append(s.workerURLs, u)
		s.workerStats = append(s.workerStats, &WorkerStatus{URL: u})
		s.breakers = append(s.breakers, newBreaker(cfg.BreakerThreshold))
	}
	return s
}

// Cache returns the server's shared cell cache (tests assert on its
// counters; operators read them via /v1/stats).
func (s *Server) Cache() *scenario.CellCache { return s.cache }

// Metrics returns the server's request-metrics aggregator.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the routed http.Handler for the API. Every route is
// wrapped in request instrumentation (see instrument).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.instrument("campaigns", s.handleCreateCampaign))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJob))
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name}", s.instrument("artifacts", s.handleArtifact))
	mux.HandleFunc("POST /v1/cells", s.instrument("cells", s.handleCell))
	mux.HandleFunc("POST /v1/shards", s.instrument("shards", s.handleShards))
	mux.HandleFunc("GET /v1/platforms", s.instrument("platforms", s.handlePlatforms))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// When the cache has a second tier, expose it over the store batch API
	// so workers can share this server's store (-store-url .../v1/store).
	// A checksummed tier is served from its inner store: framed bytes
	// travel the wire verbatim and each remote client verifies its own
	// reads, so wire corruption is caught end-to-end instead of being
	// stripped (or double-framed) here.
	if rs := s.cache.Store(); rs != nil {
		if cs, ok := rs.(*store.Checksummed); ok {
			rs = cs.Inner()
		}
		mux.HandleFunc("POST /v1/store/", s.instrument("store", http.StripPrefix("/v1/store", store.Handler(rs)).ServeHTTP))
	}
	return mux
}

// BeginDrain puts the server in draining mode: the POST endpoints refuse
// new work with 503 while already-accepted jobs and cells keep running.
// Coordinator dispatch backoff waits abort immediately (a job deep in an
// all-workers-down retry storm fails now rather than sleeping through
// the drain window); in-flight shard round-trips are left to finish.
// Draining is one-way; it is idempotent and called during shutdown.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// AwaitIdle blocks until no campaign job is queued or running, or ctx
// expires; it reports whether the server went idle. Synchronous cell
// requests are not waited on — http.Server.Shutdown already waits for
// in-flight requests.
func (s *Server) AwaitIdle(ctx context.Context) bool {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := s.queuedJobs == 0 && s.runningJobs == 0
		s.mu.Unlock()
		if idle {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-tick.C:
		}
	}
}

// FailLiveJobs force-fails every queued or running job with the given
// reason and returns how many it failed. Used when the drain deadline
// expires: clients polling those jobs see a terminal "failed" state with
// the shutdown reason instead of a job that never finishes.
func (s *Server) FailLiveJobs(reason string) int {
	s.mu.Lock()
	live := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()
	n := 0
	for _, j := range live {
		if j.forceFail(reason) {
			n++
		}
	}
	return n
}

// statusRecorder captures the response status (and lets handlers annotate
// the sample with their admission queue wait) for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
	queueWaitMS float64
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wroteHeader {
		r.status = code
		r.wroteHeader = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if !r.wroteHeader {
		r.status = http.StatusOK
		r.wroteHeader = true
	}
	return r.ResponseWriter.Write(p)
}

// setQueueWait annotates the in-flight request's sample with the time it
// spent waiting for an admission slot.
func setQueueWait(w http.ResponseWriter, d time.Duration) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.queueWaitMS = durationMS(d)
	}
}

func durationMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// instrument wraps a handler so every request lands in Metrics as one
// flat RequestSample: endpoint, method, status, cache tier (from the
// X-Cache header the handler set), queue wait, and duration.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		s.metrics.Observe(RequestSample{
			Endpoint:    endpoint,
			Method:      r.Method,
			Status:      rec.status,
			Tier:        rec.Header().Get("X-Cache"),
			QueueWaitMS: rec.queueWaitMS,
			DurationMS:  durationMS(time.Since(start)),
		})
	}
}

// retryAfter computes the Retry-After hint for a 429 on the endpoint:
// the sliding-window median of the admission queue waits recently
// observed there (rounded up to whole seconds, clamped), because the
// typical wait of requests that did get in is the best available estimate
// of how long a rejected client should stand back. Before any wait has
// been observed the constant fallback applies.
func (s *Server) retryAfter(endpoint string) int {
	p50 := s.metrics.QueueWaitP50MS(endpoint)
	if p50 <= 0 {
		return retryAfterSeconds
	}
	secs := int(math.Ceil(p50 / 1000))
	if secs < minRetryAfterSeconds {
		secs = minRetryAfterSeconds
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
}

// reject emits a 429 with the endpoint's load-aware Retry-After hint.
func (s *Server) reject(w http.ResponseWriter, endpoint, format string, args ...any) {
	w.Header().Set("Retry-After", fmt.Sprint(s.retryAfter(endpoint)))
	writeError(w, http.StatusTooManyRequests, format, args...)
}

// writeJSON emits an indented JSON response body, for the endpoints
// people read.
func writeJSON(w http.ResponseWriter, status int, v any) {
	encodeJSON(w, status, v, "  ")
}

// encodeJSON emits a JSON response body indented by indent; "" writes it
// compact, for bodies only programs read (shard results).
func encodeJSON(w http.ResponseWriter, status int, v any, indent string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", indent)
	enc.Encode(v) //nolint:errcheck // response writer errors are the client's problem
}

// writeError emits the API error shape {"error": "..."}.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// newJobID returns a fresh unguessable job id. Callers hold s.mu.
func (s *Server) newJobID() string {
	for {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("server: crypto/rand: %v", err))
		}
		id := "job-" + hex.EncodeToString(b[:])
		if _, ok := s.jobs[id]; !ok {
			return id
		}
	}
}

// handleCreateCampaign validates the posted campaign and starts it as an
// asynchronous job. Submissions past the bounded job queue are shed with
// 429 before the body is even parsed.
func (s *Server) handleCreateCampaign(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining; not accepting new work")
		return
	}
	// Admission first: reserve a queue slot before doing any parse work,
	// so a saturated server sheds load as cheaply as possible.
	s.mu.Lock()
	if s.queuedJobs >= s.maxQueued {
		queued := s.queuedJobs
		s.mu.Unlock()
		s.reject(w, "campaigns", "job queue full (%d queued, %d running); retry later", queued, s.runningSnapshot())
		return
	}
	s.queuedJobs++
	s.mu.Unlock()

	// The body is read fully before parsing: the verbatim bytes go into
	// the job journal so a restarted coordinator can re-run the job.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var campaign *scenario.Campaign
	if err == nil {
		campaign, err = scenario.Load(bytes.NewReader(body))
	}
	if err != nil {
		s.mu.Lock()
		s.queuedJobs--
		s.mu.Unlock()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"campaign body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j := newJob(campaign.Name)

	s.mu.Lock()
	j.id = s.newJobID()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.mu.Unlock()
	s.journalAdd(j.id, body, j.created)

	go s.runJob(j, campaign)

	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":         j.id,
		"status_url": "/v1/jobs/" + j.id,
	})
}

// runningSnapshot reads the running-jobs gauge without assuming the
// caller holds s.mu.
func (s *Server) runningSnapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runningJobs
}

// evictLocked drops the oldest finished jobs past maxJobs. Running jobs
// are never dropped, so the retained set can transiently exceed the bound
// under a burst of long jobs. Callers hold s.mu.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.maxJobs {
		evicted := false
		for i, id := range s.order {
			if j := s.jobs[id]; j != nil && j.finished() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// runJob executes one campaign job, streaming progress into the job
// record. Jobs past the MaxRunning bound wait in state "queued"; the
// queue wait is recorded on the job and in the server gauges.
func (s *Server) runJob(j *job, campaign *scenario.Campaign) {
	waitStart := time.Now()
	s.runSem <- struct{}{}
	defer func() { <-s.runSem }()
	s.mu.Lock()
	s.queuedJobs--
	s.runningJobs++
	s.mu.Unlock()
	j.setRunning(time.Since(waitStart))
	runner := scenario.Runner{
		Cache:      s.cache,
		Workers:    s.workers,
		OnPlan:     j.setPlan,
		OnEvent:    j.onCell,
		OnScenario: j.onScenario,
		OnArtifact: j.onArtifact,
	}
	if len(s.workerURLs) > 0 {
		// Coordinator mode: cohorts execute on the worker fleet; the local
		// runner still owns dedupe, cache preload and artifact assembly.
		runner.ExecBatch = func(specs []scenario.CellSpec) ([]scenario.CellResult, error) {
			return s.dispatchShard(j, specs)
		}
	}
	report, err := runner.Run(campaign)
	// A job that ran to its own end leaves the journal before finish makes
	// it terminal: a poller that sees "done" must find no store write of
	// this job still in flight. A job force-failed first (shutdown) keeps
	// its entry so the next coordinator process resumes it.
	if !j.settle() {
		s.journalRemove(j.id)
	}
	// Fold the job's counters into the server totals before finish makes
	// the job terminal: a poller that sees "done" must find them in
	// /v1/stats. finish takes j.mu inside s.mu, the order evictLocked
	// uses.
	s.mu.Lock()
	if report != nil {
		s.cohorts.Built += int64(report.Cohorts)
		s.cohorts.ReplayedCells += int64(report.CohortCells)
		s.adaptive.Cells += int64(report.AdaptiveCells)
		s.adaptive.ReplicasUsed += report.AdaptiveReplicasUsed
		s.adaptive.ReplicasCap += report.AdaptiveReplicasCap
	}
	j.finish(report, err)
	s.mu.Unlock()
	// Re-run eviction now that this job is finished: without it, jobs
	// past MaxJobs would linger until the next submission.
	s.mu.Lock()
	s.runningJobs--
	s.evictLocked()
	s.mu.Unlock()
}

// handleJob reports a job's progress.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleArtifact streams one finished artifact as CSV. Artifacts become
// downloadable as soon as their scenario completes, before the whole job
// finishes; the trailing ".csv" is optional in the name.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	name := strings.TrimSuffix(r.PathValue("name"), ".csv")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	csv, ok := j.artifactCSV(name)
	if !ok {
		writeError(w, http.StatusNotFound, "job %q has no finished artifact %q", id, name)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("Content-Length", fmt.Sprint(len(csv)))
	w.Write(csv) //nolint:errcheck
}

// cellResponse is the POST /v1/cells response body.
type cellResponse struct {
	// Cell is the cell's content hash (its cache key).
	Cell string `json:"cell"`
	// Cache is the tier that served the request: "mem", "disk", "exec" or
	// "coalesced".
	Cache scenario.CellTier `json:"cache"`
	// Result is the cell result (exactly one sub-object set, by op).
	Result scenario.CellResult `json:"result"`
}

// admitCell acquires one in-flight cell slot, waiting up to AdmissionWait
// for it; on refusal (429 + load-aware Retry-After, or 499 on client
// abandon) it writes the response and reports false. On true the caller
// owns a cellSem slot and must release it.
func (s *Server) admitCell(w http.ResponseWriter, r *http.Request, endpoint string) bool {
	waitStart := time.Now()
	select {
	case s.cellSem <- struct{}{}:
	default:
		if s.admissionWait <= 0 {
			s.reject(w, endpoint, "cell capacity saturated (%d in flight); retry later", cap(s.cellSem))
			return false
		}
		timer := time.NewTimer(s.admissionWait)
		select {
		case s.cellSem <- struct{}{}:
			timer.Stop()
		case <-timer.C:
			setQueueWait(w, time.Since(waitStart))
			s.reject(w, endpoint, "cell capacity saturated (%d in flight); retry later", cap(s.cellSem))
			return false
		case <-r.Context().Done():
			timer.Stop()
			setQueueWait(w, time.Since(waitStart))
			writeError(w, 499, "client closed request")
			return false
		}
	}
	setQueueWait(w, time.Since(waitStart))
	return true
}

// handleCell evaluates one cell synchronously through the shared cache.
// Requests past the in-flight bound wait up to AdmissionWait for a slot,
// then get 429 + Retry-After.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining; not accepting new work")
		return
	}
	if !s.admitCell(w, r, "cells") {
		return
	}
	defer func() { <-s.cellSem }()

	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var spec scenario.CellSpec
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"cell body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "parse cell: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash, res, tier, err := s.cache.Evaluate(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("X-Cache", string(tier))
	writeJSON(w, http.StatusOK, cellResponse{Cell: hash, Cache: tier, Result: res})
}

// platformInfo is one catalogue entry of the /v1/platforms response.
type platformInfo struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// handlePlatforms lists the built-in platform catalogue.
func (s *Server) handlePlatforms(w http.ResponseWriter, _ *http.Request) {
	resp := struct {
		Fixed   []platformInfo `json:"fixed"`
		Scaling []platformInfo `json:"scaling"`
	}{}
	for _, name := range scenario.PlatformNames() {
		p, _ := scenario.LookupPlatform(name)
		resp.Fixed = append(resp.Fixed, platformInfo{Name: name, Desc: p.Desc})
	}
	for _, name := range scenario.ScalingPlatformNames() {
		p, _ := scenario.LookupScalingPlatform(name)
		resp.Scaling = append(resp.Scaling, platformInfo{Name: name, Desc: p.Desc})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ServerStats is the "server" section of /v1/stats: admission gauges and
// per-endpoint / per-cache-tier latency summaries.
type ServerStats struct {
	// QueuedJobs is the number of campaign jobs waiting for a run slot.
	QueuedJobs int `json:"queued_jobs"`
	// RunningJobs is the number of campaign jobs currently executing.
	RunningJobs int `json:"running_jobs"`
	// InflightCells is the number of synchronous cell requests currently
	// holding an admission slot.
	InflightCells int `json:"inflight_cells"`
	// Draining reports whether the server has begun its shutdown drain
	// (POST endpoints refuse new work with 503).
	Draining bool `json:"draining"`
	// Workers holds per-worker dispatch counters on a coordinator (absent
	// on a single-node server).
	Workers []WorkerStatus `json:"workers,omitempty"`
	// Endpoints summarizes request latency per endpoint label.
	Endpoints []LatencySummary `json:"endpoints"`
	// Tiers summarizes successful cell-request latency per cache tier.
	Tiers []LatencySummary `json:"tiers"`
}

// serverStats snapshots the admission gauges and latency summaries.
func (s *Server) serverStats() ServerStats {
	s.mu.Lock()
	queued, running := s.queuedJobs, s.runningJobs
	s.mu.Unlock()
	return ServerStats{
		QueuedJobs:    queued,
		RunningJobs:   running,
		InflightCells: len(s.cellSem),
		Draining:      s.draining.Load(),
		Workers:       s.workerStatuses(),
		Endpoints:     s.metrics.EndpointSummaries(),
		Tiers:         s.metrics.TierSummaries(),
	}
}

// handleStats reports the shared cache's tier counters, the cumulative
// trace-cohort work of finished jobs, and the server's admission gauges
// and latency summaries.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	cohorts := s.cohorts
	adaptive := s.adaptive
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Cache    scenario.CacheStats `json:"cache"`
		Cohorts  CohortStats         `json:"cohorts"`
		Adaptive AdaptiveStats       `json:"adaptive"`
		Server   ServerStats         `json:"server"`
		Time     time.Time           `json:"time"`
	}{Cache: s.cache.Stats(), Cohorts: cohorts, Adaptive: adaptive, Server: s.serverStats(), Time: time.Now().UTC()})
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	queued, running := s.queuedJobs, s.runningJobs
	cohorts := s.cohorts
	adaptive := s.adaptive
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePromText(w, promGauges{
		QueuedJobs:    queued,
		RunningJobs:   running,
		InflightCells: len(s.cellSem),
		Draining:      s.draining.Load(),
		Cache:         s.cache.Stats(),
		Cohorts:       cohorts,
		Adaptive:      adaptive,
		Workers:       s.workerStatuses(),
	})
}
