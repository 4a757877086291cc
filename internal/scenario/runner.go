package scenario

import (
	"fmt"
	"runtime"
	"sync"
	"time"
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
	// Cohorts counts the trace cohorts this run walked jointly (groups of
	// two or more uncached simulation cells sharing one failure process,
	// walked replica-major over one live stream per replica; see
	// sim.SimulateCohort); CohortCells counts the cells executed in those
	// walks.
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
	// builds a private memory-only cache; pass NewCellCache(dir, 0) for
	// an on-disk one. A server shares one CellCache across jobs and
	// synchronous cell evaluations to get memory hits and singleflight
	// coalescing between them.
	Cache *CellCache
	// Workers bounds cell-level parallelism (0: NumCPU). Keying the cell
	// references, the cache preload's batched lookups and the execution
	// units (trace cohorts, or packed dispatch units under ExecBatch) each
	// run on one claim pool of this many goroutines, the caller's
	// included, and inline when there is one worker or one item. When a
	// campaign has fewer units than workers, the runner lends the idle
	// workers to the simulation cells themselves (Workers / units replica
	// workers per cell). Results are bit-identical for any worker count at
	// either level (see sim.Simulate).
	Workers int
	// DisableCohorts selects the reference path: every simulation cell
	// draws its own failure streams instead of walking its cohort's shared
	// ones. A cohort walk is bit-identical to its members' solo runs
	// (sim.SimulateCohort), so the two paths give the same bytes;
	// equivalence tests and reference runs set it to hold the cohort path
	// to that.
	DisableCohorts bool
	// ExecBatch, when set, replaces local cell execution: the cells left
	// after the cache preload are packed, in order, into units of whole
	// cohorts (so a remote worker still shares each failure process across
	// its cells) of about 1/(4 · Workers) of the cells and simulation
	// work, within MaxShardCells and the shard load budgets (see
	// packUnits), and each unit is handed to the hook in one call. It
	// must come back as one result per spec, in order. Results still flow
	// through the cache: each unit is read back with one store GetBatch,
	// and what the store lacks is settled from the hook's results through
	// the singleflight and written with one PutBatch. Dedupe and Report
	// accounting are identical to local execution; only the compute moves.
	// The coordinator sets this to dispatch units to workers over HTTP, one
	// shard each. The hook may be called from several workers
	// concurrently.
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

// cellState is the one handle of a unique cell: a plan's references, its
// cohorts and dispatch units, and the cache's batch paths all carry it,
// and the cache settles it in place.
type cellState struct {
	spec      CellSpec
	key       cellKey // derived once, at dedupe
	result    CellResult
	tier      CellTier // the tier that settled it; empty until it settles without error
	elapsedMS float64  // execution time of a TierExec result
}

// Run validates and executes the campaign. On cell or cache errors the
// first error is returned after in-flight cells drain.
func (r *Runner) Run(c *Campaign) (*Report, error) {
	if c == nil {
		return nil, fmt.Errorf("scenario: nil campaign")
	}
	cache := r.Cache
	if cache == nil {
		cache = NewCellCache("", 0)
	}

	totalWorkers := r.Workers
	if totalWorkers <= 0 {
		totalWorkers = runtime.NumCPU()
	}

	// Expand every scenario and deduplicate cells by content hash.
	e, err := expandCampaign(c, totalWorkers)
	if err != nil {
		return nil, err
	}
	if r.OnPlan != nil {
		r.OnPlan(e.plan(c.Name))
	}
	type specRun struct {
		ex      *expansion
		cells   []*cellState
		pending int
		slot    int // artifact position in the report
	}
	order := e.order
	runs := make([]*specRun, len(e.exs))
	for i, ex := range e.exs {
		runs[i] = &specRun{ex: ex, cells: e.refs[i], slot: i}
	}
	report := &Report{Campaign: c.Name, Cells: e.cells, Unique: len(order)}

	// Load whatever the cache tiers already have, then take the hits in
	// first-reference order, so counters, events and assembly do not
	// depend on the worker count.
	preload(cache, order, totalWorkers)
	var todo []*cellState
	for _, st := range order {
		if st.tier != "" {
			report.CacheHits++
		} else {
			todo = append(todo, st)
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
		results := make([]CellResult, len(run.cells))
		for i, st := range run.cells {
			results[i] = st.result
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
				Done:      len(run.cells) - run.pending,
				Total:     len(run.cells),
				Completed: completed,
			})
		}
	}
	subscribers := map[*cellState][]*specRun{}
	for _, run := range runs {
		for _, st := range run.cells {
			if st.tier == "" {
				run.pending++
				subscribers[st] = append(subscribers[st], run)
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
	for _, st := range order {
		if st.tier != "" {
			completed++
			emit(CellEvent{Hash: st.key.hash, Index: completed, Total: len(order), Cached: true})
		}
	}

	// Group the remaining cells into trace cohorts (cells sharing one
	// failure process; everything else rides as a singleton) and execute
	// one cohort per worker — under ExecBatch, one packed unit of whole
	// cohorts per worker — through the cache: a concurrent run sharing the
	// cache may have executed (or be executing) a cell, in which case the
	// tier reports a hit and the cell counts as cached, not executed.
	units := r.schedule(todo, totalWorkers)
	// Idle-worker lending: with fewer schedulable units than workers, the
	// spare parallelism moves inside the simulation cells (replica-level
	// workers), which is bit-identical to single-threaded execution.
	simWorkers := 1
	if len(units) > 0 {
		if lent := totalWorkers / len(units); lent > 1 {
			simWorkers = lent
		}
	}

	// complete handles one settled cell (or the error that stopped it)
	// under the mutex: record the first error, or count the cell, decrement
	// every subscribed scenario and assemble those that hit zero. It
	// reports whether the run goes on. Callbacks run under the lock: they
	// are never invoked concurrently, at the price of serializing progress
	// reporting (cell execution itself stays parallel).
	complete := func(st *cellState, err error) bool {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return false
		}
		cached := st.tier != TierExec
		var elapsed time.Duration
		if cached {
			report.CacheHits++
		} else {
			elapsed = time.Duration(st.elapsedMS * float64(time.Millisecond))
			report.Executed++
			if st.spec.Precision != nil && st.result.Sim != nil {
				report.AdaptiveCells++
				report.AdaptiveReplicasUsed += int64(st.result.Sim.Runs)
				report.AdaptiveReplicasCap += int64(st.result.Sim.RepsCap)
			}
		}
		completed++
		emit(CellEvent{Hash: st.key.hash, Index: completed, Total: len(order), Cached: cached, Elapsed: elapsed})
		// A scenario may reference the same cell more than once;
		// subscribers holds one entry per reference, so every reference
		// is decremented exactly once.
		for _, run := range subscribers[st] {
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
		return firstErr == nil
	}

	// runUnit executes one unit. Locally that is one cohort: its cells run
	// through execCohort without another store read (the preload has just
	// made it), and the cells it executed are written with one writeBatch.
	// Under ExecBatch the compute, cohort walks included, happens wherever
	// the hook runs; each cell holds the hook's result while the unit is
	// read back through the cache's batch path (settle), and the cells the
	// store lacks are settled from those results and written with one
	// writeBatch. A panic in ExecBatch or in a cell's execution (execute
	// and execJoint re-raise it after releasing their waiters) becomes the
	// run's first error, naming the unit's first cell not yet settled; the
	// remaining units then drain as after any error.
	runUnit := func(co cohort) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				defer mu.Unlock()
				st := co.cells[0]
				for _, x := range co.cells {
					if x.tier == "" {
						st = x
						break
					}
				}
				if firstErr == nil {
					firstErr = fmt.Errorf("scenario: cell %s: execution panicked: %v", st.key.hash[:12], v)
				}
			}
		}()
		if r.ExecBatch == nil {
			executed, joint := cache.execCohort(co, simWorkers, complete)
			cache.writeBatch(executed)
			if joint {
				mu.Lock()
				report.Cohorts++
				for _, st := range co.cells {
					if st.tier == TierExec {
						report.CohortCells++
					}
				}
				mu.Unlock()
			}
			return
		}
		specs := make([]CellSpec, len(co.cells))
		for i, st := range co.cells {
			specs[i] = st.spec
		}
		results, batchErr := r.ExecBatch(specs)
		if batchErr == nil && len(results) != len(specs) {
			batchErr = fmt.Errorf("scenario: ExecBatch returned %d results for %d cells", len(results), len(specs))
		}
		if batchErr == nil {
			for i, st := range co.cells {
				st.result = results[i]
			}
		}
		cache.settle(co.cells, complete, func(misses []*cellState) []*cellState {
			return cache.execCells(misses, func(st *cellState) (CellResult, error) {
				return st.result, batchErr
			}, complete)
		})
	}

	// The units run on the caller and up to totalWorkers-1 goroutines.
	// After the first error the rest are only claimed, not started.
	claim(len(units), totalWorkers, func(i int) {
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if !failed {
			runUnit(units[i])
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	for _, arts := range artifacts {
		report.Artifacts = append(report.Artifacts, arts...)
	}
	return report, nil
}

// schedule splits the cells left to run into the units the runner's
// workers take, in order: trace cohorts (singletons under
// DisableCohorts), packed into dispatch units under ExecBatch.
func (r *Runner) schedule(todo []*cellState, workers int) []cohort {
	var units []cohort
	if r.DisableCohorts {
		for _, st := range todo {
			units = append(units, cohort{cells: []*cellState{st}})
		}
	} else {
		units = groupCohorts(todo)
	}
	if r.ExecBatch != nil {
		units = packUnits(units, workers)
	}
	return units
}

// preloadChunk is how many cells one preload claim reads with one
// lookupBatch, so one store GetBatch: one round-trip on a remote store,
// 44 for the 2,788 cells of paper.json. It is a constant, not a setting:
// the artifacts do not depend on it.
const preloadChunk = 64

// preload looks every unique cell up in the cache tiers, never executing,
// and settles each hit in place. Chunks of cells are claimed on up to
// workers goroutines (see claim) and each read with one lookupBatch.
func preload(cache *CellCache, cells []*cellState, workers int) {
	claim((len(cells)+preloadChunk-1)/preloadChunk, workers, func(i int) {
		cache.lookupBatch(cells[i*preloadChunk : min((i+1)*preloadChunk, len(cells))])
	})
}
