package scenario

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"abftckpt/internal/sim"
)

// CellEvent reports the completion of one unique cell, streamed to
// Runner.OnEvent as the campaign progresses.
type CellEvent struct {
	// Hash is the cell's cache key.
	Hash string
	// Index counts completed unique cells (1-based); Total is the unique
	// cell count of the campaign.
	Index, Total int
	// Cached reports a cache hit from any tier (no execution happened in
	// this run).
	Cached bool
	// Elapsed is the execution time (zero for cache hits).
	Elapsed time.Duration
}

// ScenarioEvent reports per-scenario progress, streamed to
// Runner.OnScenario: Done of Total cell references are complete, and
// Completed marks the scenario's artifacts assembled. The campaign server
// turns these into job status.
type ScenarioEvent struct {
	// Scenario and Kind identify the scenario.
	Scenario string
	Kind     string
	// Done counts complete cell references out of Total (shared cells
	// included, so Done/Total tracks this scenario alone).
	Done, Total int
	// Completed is set once, on the event that assembled the artifacts.
	Completed bool
}

// Report summarizes one campaign run.
type Report struct {
	// Campaign is the campaign name.
	Campaign string
	// Cells is the total number of cell references across all scenarios;
	// Unique deduplicates shared cells (e.g. a model heatmap and the
	// difference heatmap reusing it).
	Cells, Unique int
	// CacheHits and Executed partition the unique cells: CacheHits were
	// served by the cache (either tier, or an execution coalesced with a
	// concurrent run sharing the cache); Executed ran in this run.
	CacheHits, Executed int
	// Cohorts counts the trace cohorts this run materialized (groups of
	// uncached simulation cells sharing one failure process whose arrival
	// arena was built); CohortCells counts the cells executed by replaying
	// one of those arenas.
	Cohorts, CohortCells int
	// AdaptiveCells counts executed cells that ran under an adaptive-
	// precision block; AdaptiveReplicasUsed and AdaptiveReplicasCap sum
	// their replica counts and caps, so Cap-Used is the campaign's replica
	// savings from sequential stopping.
	AdaptiveCells                             int
	AdaptiveReplicasUsed, AdaptiveReplicasCap int64
	// Artifacts holds the finished outputs in campaign order.
	Artifacts []Artifact
}

// Runner executes campaigns: it expands every scenario into cells,
// deduplicates them, loads what the cache already has, executes the rest on
// a worker pool, and assembles artifacts as soon as their cells complete.
type Runner struct {
	// Cache is the two-tier cell cache to run through. When nil, Run
	// builds a private cache over CacheDir, so separate runs share only
	// the disk tier; a server shares one CellCache across jobs and
	// synchronous cell evaluations to get memory hits and singleflight
	// coalescing between them.
	Cache *CellCache
	// CacheDir is the on-disk cell cache used when Cache is nil; empty
	// disables disk caching.
	CacheDir string
	// Workers bounds cell-level parallelism (0: NumCPU): the cache preload
	// spreads its lookups over this many goroutines, and execution runs
	// cells (grouped into trace cohorts) on as many; when a campaign has
	// fewer units than workers, the runner lends the idle workers to the
	// simulation cells themselves (Workers / units replica workers per
	// cell). Results are bit-identical for any worker count at either
	// level (see sim.Simulate).
	Workers int
	// DisableCohorts turns off trace-cohort execution: every simulation
	// cell regenerates its own failure streams. Results are identical
	// either way (sim.SimulateFromTrace is bit-identical to sim.Simulate);
	// the toggle exists for benchmarking and as an operational escape
	// hatch.
	DisableCohorts bool
	// ArenaBudget bounds one cohort's materialized trace arena in bytes
	// (0: DefaultArenaBudget). Cohorts whose estimated arena exceeds the
	// budget fall back to per-cell generation.
	ArenaBudget int64
	// ExecBatch, when set, replaces local cell execution: each cohort is
	// handed to the hook in one call (whole cohorts, so a remote worker
	// still shares the failure process across its cells) and must come back
	// as one result per spec, in order. Results still flow through the
	// cache — dedupe, singleflight, store write-back and Report accounting
	// are identical to local execution; only the compute moves. The
	// coordinator sets this to dispatch cohorts to workers over HTTP. The
	// hook may be called from several workers concurrently.
	ExecBatch func(specs []CellSpec) ([]CellResult, error)
	// OnPlan, when set, receives the expanded campaign plan once, before
	// any cell runs.
	OnPlan func(Plan)
	// OnEvent, when set, receives a CellEvent per unique cell. Callbacks
	// are never invoked concurrently.
	OnEvent func(CellEvent)
	// OnScenario, when set, receives per-scenario progress: one event per
	// scenario after cache preloading, then one per affected scenario as
	// each cell completes. Callbacks are never invoked concurrently.
	OnScenario func(ScenarioEvent)
	// OnArtifact, when set, receives each artifact as soon as the scenario
	// producing it completes (before Run returns). Callbacks are never
	// invoked concurrently.
	OnArtifact func(Artifact)
}

// cellState tracks one unique cell through a run.
type cellState struct {
	spec   CellSpec
	key    cellKey // derived once, at dedupe
	result CellResult
	done   bool
	cached bool
}

// Run validates and executes the campaign. On cell or cache errors the
// first error is returned after in-flight cells drain.
func (r *Runner) Run(c *Campaign) (*Report, error) {
	if c == nil {
		return nil, fmt.Errorf("scenario: nil campaign")
	}
	cache := r.Cache
	if cache == nil {
		cache = NewCellCache(r.CacheDir, 0)
	}

	// Expand every scenario and deduplicate cells by content hash.
	type specRun struct {
		ex      *expansion
		hashes  []string
		pending int
		slot    int // artifact position in the report
	}
	exs, err := c.expandAll()
	if err != nil {
		return nil, err
	}
	states := map[string]*cellState{}
	var order []string // unique cells in first-reference order
	runs := make([]*specRun, 0, len(exs))
	totalRefs := 0
	for i, ex := range exs {
		run := &specRun{ex: ex, slot: i}
		for _, cell := range ex.cells {
			k := cell.key()
			if _, ok := states[k.hash]; !ok {
				states[k.hash] = &cellState{spec: cell, key: k}
				order = append(order, k.hash)
			}
			run.hashes = append(run.hashes, k.hash)
		}
		totalRefs += len(ex.cells)
		runs = append(runs, run)
	}

	report := &Report{Campaign: c.Name, Cells: totalRefs, Unique: len(order)}
	if r.OnPlan != nil {
		plan := Plan{Campaign: c.Name, Cells: totalRefs, Unique: len(order)}
		for _, co := range groupCohorts(order, func(h string) CellSpec { return states[h].spec }) {
			if len(co.hashes) > 1 {
				plan.Cohorts++
				plan.CohortCells += len(co.hashes)
			}
		}
		for _, run := range runs {
			plan.Scenarios = append(plan.Scenarios, ScenarioPlan{
				Name:      run.ex.spec.Name,
				Kind:      run.ex.spec.Kind,
				Cells:     len(run.hashes),
				Artifacts: append([]string(nil), run.ex.artifacts...),
			})
		}
		r.OnPlan(plan)
	}

	totalWorkers := r.Workers
	if totalWorkers <= 0 {
		totalWorkers = runtime.NumCPU()
	}

	// Load whatever the cache tiers already have, then take the hits in
	// first-reference order, so counters, events and assembly do not
	// depend on the worker count.
	preload(cache, order, states, totalWorkers)
	var todo []string
	for _, h := range order {
		if states[h].cached {
			report.CacheHits++
		} else {
			todo = append(todo, h)
		}
	}

	// Assembly bookkeeping: a scenario assembles once all its cells are
	// done; cache hits count immediately. subscribers indexes, per
	// not-yet-done cell, every scenario reference waiting on it (one entry
	// per reference), so completion is O(references to that cell).
	artifacts := make([][]Artifact, len(runs))
	var mu sync.Mutex
	var firstErr error
	completed := 0
	finishSpec := func(run *specRun) error {
		results := make([]CellResult, len(run.hashes))
		for i, h := range run.hashes {
			results[i] = states[h].result
		}
		arts, err := run.ex.assemble(results)
		if err != nil {
			return fmt.Errorf("scenario %q: assemble: %w", run.ex.spec.Name, err)
		}
		artifacts[run.slot] = arts
		if r.OnArtifact != nil {
			for _, a := range arts {
				r.OnArtifact(a)
			}
		}
		return nil
	}
	emitScenario := func(run *specRun, completed bool) {
		if r.OnScenario != nil {
			r.OnScenario(ScenarioEvent{
				Scenario:  run.ex.spec.Name,
				Kind:      run.ex.spec.Kind,
				Done:      len(run.hashes) - run.pending,
				Total:     len(run.hashes),
				Completed: completed,
			})
		}
	}
	subscribers := map[string][]*specRun{}
	for _, run := range runs {
		for _, h := range run.hashes {
			if !states[h].done {
				run.pending++
				subscribers[h] = append(subscribers[h], run)
			}
		}
		if run.pending == 0 {
			if err := finishSpec(run); err != nil {
				return nil, err
			}
		}
		emitScenario(run, run.pending == 0)
	}
	emit := func(ev CellEvent) {
		if r.OnEvent != nil {
			r.OnEvent(ev)
		}
	}
	for _, h := range order {
		if st := states[h]; st.cached {
			completed++
			emit(CellEvent{Hash: h, Index: completed, Total: len(order), Cached: true})
		}
	}

	// Group the remaining cells into trace cohorts (cells sharing one
	// failure process; everything else rides as a singleton) and execute
	// one cohort per worker, through the cache: a concurrent run sharing
	// the cache may have executed (or be executing) a cell, in which case
	// the tier reports a hit and the cell counts as cached, not executed.
	// Completion handling runs under the mutex: mark the cell done,
	// decrement every subscribed scenario, assemble those that hit zero.
	batches := groupCohorts(todo, func(h string) CellSpec { return states[h].spec })
	if r.DisableCohorts {
		batches = nil
		for _, h := range todo {
			batches = append(batches, cohort{hashes: []string{h}})
		}
	}
	budget := r.ArenaBudget
	if budget <= 0 {
		budget = DefaultArenaBudget
	}
	workers := totalWorkers
	if workers > len(batches) {
		workers = len(batches)
	}
	// Idle-worker lending: with fewer schedulable units than workers, the
	// spare parallelism moves inside the simulation cells (replica-level
	// workers), which is bit-identical to single-threaded execution.
	simWorkers := 1
	if len(batches) > 0 {
		if lent := totalWorkers / len(batches); lent > 1 {
			simWorkers = lent
		}
	}
	if len(batches) > 0 {
		jobs := make(chan cohort)
		var wg sync.WaitGroup
		failed := func() bool {
			mu.Lock()
			defer mu.Unlock()
			return firstErr != nil
		}
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for co := range jobs {
					// After the first error only drain the queue; do not
					// start new work.
					if failed() {
						continue
					}
					// Materialize the cohort's failure process once; nil
					// (singleton, bad spec or over-budget arena) falls back
					// to per-cell generation. Under ExecBatch the compute —
					// arena included — happens wherever the hook runs, so no
					// local arena is built.
					var arena *sim.TraceArena
					var batchRes []CellResult
					var batchErr error
					if r.ExecBatch != nil {
						specs := make([]CellSpec, len(co.hashes))
						for i, h := range co.hashes {
							specs[i] = states[h].spec
						}
						batchRes, batchErr = r.ExecBatch(specs)
						if batchErr == nil && len(batchRes) != len(specs) {
							batchErr = fmt.Errorf("scenario: ExecBatch returned %d results for %d cells", len(batchRes), len(specs))
						}
					} else if len(co.hashes) > 1 {
						cells := make([]CellSpec, len(co.hashes))
						for i, h := range co.hashes {
							cells[i] = states[h].spec
						}
						if arena = buildCohortArena(co, cells, budget); arena != nil {
							mu.Lock()
							report.Cohorts++
							mu.Unlock()
						}
					}
					for i, h := range co.hashes {
						if failed() {
							break
						}
						st := states[h]
						exec := func() (CellResult, error) {
							return st.spec.ExecuteOpts(ExecOptions{Workers: simWorkers, Arena: arena})
						}
						if r.ExecBatch != nil {
							i := i
							exec = func() (CellResult, error) {
								if batchErr != nil {
									return CellResult{}, batchErr
								}
								return batchRes[i], nil
							}
						}
						start := time.Now()
						res, tier, err := cache.do(st.key, exec)
						elapsed := time.Since(start)
						mu.Lock()
						if err != nil {
							if firstErr == nil {
								firstErr = err
							}
							mu.Unlock()
							continue
						}
						st.result, st.done = res, true
						st.cached = tier != TierExec
						if st.cached {
							report.CacheHits++
							elapsed = 0
						} else {
							report.Executed++
							if arena != nil {
								report.CohortCells++
							}
							if st.spec.Precision != nil && res.Sim != nil {
								report.AdaptiveCells++
								report.AdaptiveReplicasUsed += int64(res.Sim.Runs)
								report.AdaptiveReplicasCap += int64(res.Sim.RepsCap)
							}
						}
						completed++
						// Callbacks run under the lock: they are never invoked
						// concurrently, at the price of serializing progress
						// reporting (cell execution itself stays parallel).
						emit(CellEvent{Hash: h, Index: completed, Total: len(order), Cached: st.cached, Elapsed: elapsed})
						// A scenario may reference the same cell more than
						// once; subscribers holds one entry per reference, so
						// every reference is decremented exactly once.
						for _, run := range subscribers[h] {
							if firstErr != nil {
								break
							}
							run.pending--
							done := run.pending == 0 && artifacts[run.slot] == nil
							if done {
								if err := finishSpec(run); err != nil && firstErr == nil {
									firstErr = err
									break
								}
							}
							emitScenario(run, done)
						}
						mu.Unlock()
					}
				}
			}()
		}
		for _, co := range batches {
			jobs <- co
		}
		close(jobs)
		wg.Wait()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for _, arts := range artifacts {
		report.Artifacts = append(report.Artifacts, arts...)
	}
	return report, nil
}

// preload looks every unique cell up in the cache tiers, never executing,
// and marks each hit done and cached in its state. The lookups are
// independent, so the caller and up to workers-1 goroutines claim cells
// one at a time; each writes only the states it claimed. Lookups stay per
// key (not one store batch) so every corrupt entry is detected and
// counted.
func preload(cache *CellCache, order []string, states map[string]*cellState, workers int) {
	var next atomic.Int64
	lookups := func() {
		for i := int(next.Add(1)) - 1; i < len(order); i = int(next.Add(1)) - 1 {
			st := states[order[i]]
			if res, _, ok := cache.lookup(st.key); ok {
				st.result, st.done, st.cached = res, true, true
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(order)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lookups()
		}()
	}
	lookups()
	wg.Wait()
}
