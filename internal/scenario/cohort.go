package scenario

import (
	"math"

	"abftckpt/internal/model"
	"abftckpt/internal/sim"
)

// ProcessKey identifies the failure process a simulation cell draws: cells
// with equal keys observe bit-identical failure-arrival streams (same
// distribution family and shape, same MTBF, same stream seed, same
// repetition count, same horizon bound), so one materialized sim.TraceArena
// can serve them all. The key deliberately excludes everything the failure
// process does not depend on — protocol, alpha, checkpoint costs, options,
// and the adaptive-precision block (Reps is the cap there, and an adaptive
// cell consumes a prefix of the same arena its fixed-rep twin replays) —
// which is exactly what lets a heatmap scanning several protocols or period
// variants over one platform share each point's traces.
type ProcessKey struct {
	Dist    string
	Shape   float64
	MTBF    float64
	Seed    uint64
	Reps    int
	Horizon float64
}

// SimProcessKey derives the failure-process key of a simulation cell. The
// second return is false for non-simulation ops (they draw no failures).
func SimProcessKey(c CellSpec) (ProcessKey, bool) {
	if c.Op != OpSim || c.Params == nil {
		return ProcessKey{}, false
	}
	d := DistSpec{Name: DistExponential}
	if c.Dist != nil {
		d = *c.Dist
	}
	if d.Name == DistExponential {
		d.Shape = 0 // the exponential law has no shape; canonicalize
	}
	epochs := c.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	useful := float64(epochs) * c.Params.T0
	return ProcessKey{
		Dist:    d.Name,
		Shape:   d.Shape,
		MTBF:    c.Params.Mu,
		Seed:    c.Seed,
		Reps:    c.Reps,
		Horizon: sim.DefaultMaxTimeFactor * math.Max(useful, 1),
	}, true
}

// cohort is one group of unique cells sharing a failure process, in
// first-reference order.
type cohort struct {
	key   ProcessKey
	cells []*cellState
}

// groupCohorts partitions cells, in order, into cohorts: simulation cells
// grouped by process key, everything else a singleton. The returned slice
// preserves first-reference order, so scheduling stays deterministic.
func groupCohorts(cells []*cellState) []cohort {
	var out []cohort
	index := map[ProcessKey]int{}
	for _, st := range cells {
		key, ok := SimProcessKey(st.spec)
		if !ok {
			out = append(out, cohort{cells: []*cellState{st}})
			continue
		}
		if i, seen := index[key]; seen {
			out[i].cells = append(out[i].cells, st)
			continue
		}
		index[key] = len(out)
		out = append(out, cohort{key: key, cells: []*cellState{st}})
	}
	return out
}

// arenaBudget bounds one cohort's materialized trace arena (bytes). At the
// paper's heaviest heatmap point (one-week epochs, one-hour MTBF, 1000
// repetitions) an arena runs a few MB, so the budget leaves two orders of
// magnitude of headroom while still refusing degenerate processes (tiny
// MTBF against a huge horizon estimate). It is not a setting: replay and
// per-cell generation give the same bytes, so the budget only bounds
// memory.
const arenaBudget = 64 << 20

// arenaMargin scales the model-predicted makespan into the arena build
// horizon: the simulator's waste exceeds the first-order model's by a
// bounded amount in the feasible region (the paper's Figure 7 difference
// panels), so a modest margin covers the bulk of replicas and the replay
// fallback absorbs the stragglers. Undershooting is cheap — a replica past
// its prefix draws its tail live in the same walker, exactly what per-cell
// generation would have done — while overshooting is generation paid for
// arrivals nobody consumes, so the margin stays tight.
const arenaMargin = 1.2

// infeasibleHorizonFactor is the build horizon in units of useful time when
// the model predicts infeasibility (or a non-finite makespan): such cells
// mostly truncate at the full sim horizon, which would be absurd to
// materialize, so the arena covers a short prefix and replay falls back.
const infeasibleHorizonFactor = 4

// cohortHorizon estimates how far to materialize the cohort's arrival
// streams: the analytic model predicts each member's expected makespan, and
// the largest prediction (with margin) covers the typical replica of every
// member. Replay never depends on the estimate for correctness — replicas
// outrunning the prefix continue drawing live.
func cohortHorizon(co cohort) float64 {
	maxH := 0.0
	for _, st := range co.cells {
		c := &st.spec
		proto, err := ParseProtocol(c.Protocol)
		if err != nil || c.Params == nil {
			continue
		}
		epochs := c.Epochs
		if epochs <= 0 {
			epochs = 1
		}
		useful := float64(epochs) * c.Params.T0
		est := infeasibleHorizonFactor * useful
		res := model.Evaluate(proto, *c.Params, c.Options)
		if res.Feasible && !math.IsInf(res.TFinal, 0) && !math.IsNaN(res.TFinal) {
			est = arenaMargin * float64(epochs) * res.TFinal
		}
		if est > maxH {
			maxH = est
		}
	}
	if maxH > co.key.Horizon {
		maxH = co.key.Horizon
	}
	return maxH
}

// buildCohortArena materializes the cohort's failure process, or returns
// nil when the cohort cannot profit from one (fewer than two cells) or its
// estimated footprint exceeds the budget (the cells then generate their
// streams per cell, exactly as without cohorts).
func buildCohortArena(co cohort, budget int64) *sim.TraceArena {
	if len(co.cells) < 2 {
		return nil
	}
	ctor, err := co.cells[0].spec.Dist.constructor()
	if err != nil {
		return nil
	}
	horizon := cohortHorizon(co)
	if est := sim.EstimateArenaArrivals(co.key.MTBF, horizon, co.key.Reps); est > budget/8 {
		return nil
	}
	return sim.BuildTraceArena(ctor(co.key.MTBF), co.key.Seed, co.key.Reps, horizon)
}

// execCohort executes one trace cohort's cells, in order, through
// execCells: the one execution path of a local campaign run and of a
// worker's shard. It materializes the cohort's failure process once (see
// buildCohortArena). It returns the cells executed here, for the caller's
// writeBatch, and whether an arena was built. simWorkers bounds
// replica-level parallelism inside each cell.
func (c *CellCache) execCohort(co cohort, simWorkers int, done cellDone) ([]*cellState, bool) {
	arena := buildCohortArena(co, arenaBudget)
	opts := ExecOptions{Workers: simWorkers, Arena: arena}
	executed := c.execCells(co.cells, func(st *cellState) (CellResult, error) {
		return st.spec.ExecuteOpts(opts)
	}, done)
	return executed, arena != nil
}
