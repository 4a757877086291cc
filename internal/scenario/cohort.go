package scenario

import (
	"math"

	"abftckpt/internal/sim"
)

// ProcessKey identifies the failure process a simulation cell draws: cells
// with equal keys observe bit-identical failure-arrival streams (same
// distribution family and shape, same MTBF, same stream seed, same
// repetition count, same horizon bound), so one sim.SimulateCohort walk
// can draw each replica's stream once for them all. The key deliberately
// excludes everything the failure process does not depend on — protocol,
// alpha, checkpoint costs, options, and the adaptive-precision block (Reps
// is the cap there, and an adaptive cell walks the first replicas of the
// same streams its fixed-rep twin walks) — which is exactly what lets a
// heatmap scanning several protocols or period variants over one platform
// share each point's traces.
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

// execCohort executes one trace cohort's cells, in order, through
// execJoint: the one execution path of a local campaign run and of a
// worker's shard. The members it claims run in one call: two or more
// walk one sim.SimulateCohort call (walkCohort), so their shared failure
// process is drawn once, and a lone one runs through ExecuteOpts. It
// returns the cells executed here, for the caller's writeBatch, and
// whether the cohort was walked jointly (it has two or more cells).
// simWorkers bounds replica-level parallelism inside the walk.
func (c *CellCache) execCohort(co cohort, simWorkers int, done cellDone) ([]*cellState, bool) {
	return c.execJoint(co.cells, func(claimed []*cellState) []error {
		if len(claimed) > 1 {
			return walkCohort(claimed, simWorkers)
		}
		var err error
		if claimed[0].result, err = claimed[0].spec.ExecuteOpts(ExecOptions{Workers: simWorkers}); err != nil {
			return []error{err}
		}
		return nil
	}, done), len(co.cells) > 1
}

// walkCohort executes simulation cells of one cohort with a single
// sim.SimulateCohort call and sets each one's result. It returns nil, or
// one error per cell when some fail validation (those are left out of the
// walk).
func walkCohort(cells []*cellState, workers int) []error {
	var errs []error
	walked := cells
	members := make([]sim.CohortMember, 0, len(cells))
	for i, st := range cells {
		if err := st.spec.Validate(); err != nil {
			if errs == nil {
				errs = make([]error, len(cells))
				walked = append([]*cellState(nil), cells[:i]...)
			}
			errs[i] = err
			continue
		}
		if errs != nil {
			walked = append(walked, st)
		}
		cfg, prec, adaptive := st.spec.simConfig(workers)
		m := sim.CohortMember{Config: cfg}
		if adaptive {
			m.Precision = new(sim.Precision)
			*m.Precision = prec
		}
		members = append(members, m)
	}
	for i, agg := range sim.SimulateCohort(members, workers) {
		if st := walked[i]; st.spec.Precision != nil {
			st.result = CellResult{Sim: newAdaptiveSimCellResult(agg)}
		} else {
			st.result = CellResult{Sim: newSimCellResult(agg.Aggregate)}
		}
	}
	return errs
}
