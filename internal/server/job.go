package server

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"time"

	"abftckpt/internal/scenario"
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// job is one asynchronous campaign run. The runner goroutine writes
// through the callback methods; HTTP handlers read through status and
// artifactCSV. All fields behind mu.
type job struct {
	id string // immutable after registration

	// ctx is cancelled when the job is force-failed (shutdown, drain
	// deadline): coordinator dispatch carries it on every shard
	// round-trip and backoff wait, so killing the job interrupts its
	// in-flight HTTP instead of orphaning a retry loop.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	campaign  string
	state     string
	errMsg    string
	forced    bool // force-failed (shutdown); finish must not overwrite
	created   time.Time
	ended     time.Time
	queueWait time.Duration // time spent waiting for a run slot
	plan      *scenario.Plan
	cellsDone int
	cached    int
	executed  int
	scenarios []*scenarioStatus
	byName    map[string]*scenarioStatus
	workers   map[string]*jobWorkerStatus // per-worker shard progress (coordinator)
	artifacts map[string][]byte           // finished CSV bytes by artifact name
	artKinds  map[string]string           // artifact shape by name
}

// scenarioStatus tracks one scenario of a job.
type scenarioStatus struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	State string `json:"state"` // "pending", "running" or "done"
}

// jobWorkerStatus tracks one worker's contribution to a coordinated job.
type jobWorkerStatus struct {
	URL      string `json:"url"`
	Shards   int    `json:"shards"`
	Cells    int    `json:"cells"`
	Executed int    `json:"executed"`
	Cached   int    `json:"cached"`
}

// artifactInfo is one finished artifact in the job status.
type artifactInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	URL  string `json:"url"`
}

func newJob(campaign string) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		ctx:       ctx,
		cancel:    cancel,
		campaign:  campaign,
		state:     StateQueued,
		created:   time.Now().UTC(),
		byName:    map[string]*scenarioStatus{},
		artifacts: map[string][]byte{},
		artKinds:  map[string]string{},
	}
}

// setRunning marks the job as executing (it acquired a run slot after
// waiting queueWait in state "queued").
func (j *job) setRunning(queueWait time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.queueWait = queueWait
}

// setPlan records the expanded plan (Runner.OnPlan).
func (j *job) setPlan(p scenario.Plan) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.plan = &p
	for _, sp := range p.Scenarios {
		st := &scenarioStatus{Name: sp.Name, Kind: sp.Kind, Total: sp.Cells, State: "pending"}
		j.scenarios = append(j.scenarios, st)
		j.byName[sp.Name] = st
	}
}

// onCell counts unique-cell completions (Runner.OnEvent).
func (j *job) onCell(ev scenario.CellEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cellsDone = ev.Index
	if ev.Cached {
		j.cached++
	} else {
		j.executed++
	}
}

// onShard records one completed shard dispatch (coordinator mode).
func (j *job) onShard(workerURL string, cells, executed, cached int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.workers == nil {
		j.workers = map[string]*jobWorkerStatus{}
	}
	ws := j.workers[workerURL]
	if ws == nil {
		ws = &jobWorkerStatus{URL: workerURL}
		j.workers[workerURL] = ws
	}
	ws.Shards++
	ws.Cells += cells
	ws.Executed += executed
	ws.Cached += cached
}

// onScenario updates per-scenario progress (Runner.OnScenario).
func (j *job) onScenario(ev scenario.ScenarioEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.byName[ev.Scenario]
	if st == nil {
		return
	}
	st.Done = ev.Done
	switch {
	case ev.Completed:
		st.State = "done"
	case st.State == "pending" && ev.Done > 0:
		st.State = "running"
	}
}

// onArtifact renders and stores a finished artifact (Runner.OnArtifact).
// Artifacts become downloadable as soon as they are assembled, before the
// job finishes.
func (j *job) onArtifact(a scenario.Artifact) {
	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		j.mu.Lock()
		defer j.mu.Unlock()
		if j.errMsg == "" {
			j.errMsg = "render artifact " + a.Name + ": " + err.Error()
		}
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.artifacts[a.Name] = buf.Bytes()
	j.artKinds[a.Name] = a.Kind()
}

// forceFail drives a live job to a terminal failed state with the given
// reason (server shutdown); it reports whether the job was live. The
// runner goroutine may still be executing — its later finish is a no-op,
// so the reason clients see is the shutdown's, not a stale success.
func (j *job) forceFail(reason string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return false
	}
	j.state = StateFailed
	j.errMsg = reason
	j.forced = true
	j.ended = time.Now().UTC()
	// Interrupt the runner: in-flight shard dispatches and backoff waits
	// carrying j.ctx abort instead of running to their own timeouts.
	j.cancel()
	return true
}

// wasForced reports whether the job ended by forceFail (shutdown) rather
// than by its runner finishing. A forced job keeps its journal entry so
// a restarted coordinator resumes it.
func (j *job) wasForced() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.forced
}

// finish records the run outcome.
func (j *job) finish(report *scenario.Report, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel() // the runner is done; release the context's resources
	if j.forced {
		return
	}
	j.ended = time.Now().UTC()
	switch {
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
	case j.errMsg != "":
		j.state = StateFailed
	default:
		j.state = StateDone
		if report != nil {
			j.cached, j.executed = report.CacheHits, report.Executed
			if j.workers != nil {
				// Coordinator job: the fleet executed. A worker sharing the
				// coordinator's store puts each result before the
				// coordinator's cache looks for it, so the local report
				// counts fleet-executed cells as cached; the shard counters
				// are the truth.
				fleet := 0
				for _, ws := range j.workers {
					fleet += ws.Executed
				}
				j.executed = min(fleet, report.Unique)
				j.cached = report.Unique - j.executed
			}
			j.cellsDone = report.Unique
		}
	}
}

// finished reports whether the job has reached a terminal state (queued
// and running jobs are live and must not be evicted).
func (j *job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed
}

// artifactCSV returns the finished CSV bytes of one artifact.
func (j *job) artifactCSV(name string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	csv, ok := j.artifacts[name]
	return csv, ok
}

// jobStatus is the GET /v1/jobs/{id} response body.
type jobStatus struct {
	ID       string `json:"id"`
	Campaign string `json:"campaign"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	Cells    struct {
		Done     int `json:"done"`
		Total    int `json:"total"`
		Cached   int `json:"cached"`
		Executed int `json:"executed"`
	} `json:"cells"`
	Scenarios []scenarioStatus  `json:"scenarios"`
	Workers   []jobWorkerStatus `json:"workers,omitempty"`
	Artifacts []artifactInfo    `json:"artifacts"`
	Created   time.Time         `json:"created"`
	Ended     *time.Time        `json:"ended,omitempty"`
	// QueueWaitMS is how long the job waited for a run slot (0 until it
	// leaves state "queued").
	QueueWaitMS float64 `json:"queue_wait_ms"`
}

// status snapshots the job for the API.
func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID:          j.id,
		Campaign:    j.campaign,
		State:       j.state,
		Error:       j.errMsg,
		Created:     j.created,
		QueueWaitMS: durationMS(j.queueWait),
	}
	st.Cells.Done = j.cellsDone
	st.Cells.Cached = j.cached
	st.Cells.Executed = j.executed
	if j.plan != nil {
		st.Cells.Total = j.plan.Unique
	}
	for _, sc := range j.scenarios {
		st.Scenarios = append(st.Scenarios, *sc)
	}
	for _, ws := range j.workers {
		st.Workers = append(st.Workers, *ws)
	}
	sort.Slice(st.Workers, func(a, b int) bool { return st.Workers[a].URL < st.Workers[b].URL })
	// Artifacts stream in completion order; present them in campaign
	// order (the plan's scenario order), listing only the finished ones.
	if j.plan != nil {
		for _, sp := range j.plan.Scenarios {
			for _, name := range sp.Artifacts {
				if _, ok := j.artifacts[name]; !ok {
					continue
				}
				st.Artifacts = append(st.Artifacts, artifactInfo{
					Name: name,
					Kind: j.artKinds[name],
					URL:  "/v1/jobs/" + j.id + "/artifacts/" + name,
				})
			}
		}
	}
	if !j.ended.IsZero() {
		ended := j.ended
		st.Ended = &ended
	}
	return st
}
