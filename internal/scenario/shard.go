package scenario

// Shard execution: a worker serving POST /v1/shards runs a batch of cells
// through its cache with exactly the semantics of a local campaign run —
// trace-cohort grouping included, so a cohort dispatched to one worker
// still draws its failure process once. The coordinator packs
// whole cohorts into each shard (see Runner.ExecBatch), so a shard is
// usually several cohorts; its store traffic is one GetBatch before
// execution and one PutBatch after, whatever the cell count.

// MaxShardCells bounds the cells one shard may carry: the runner packs
// dispatch units up to it, and a worker rejects a larger shard.
const MaxShardCells = 4096

// Load budgets of one dispatch unit. A shard's round-trip is bounded in
// time (the coordinator's shard timeout) and its response in bytes (the
// 8 MiB body cap), not only in cells, so the packer also closes a unit
// before it would pass either budget.
const (
	// shardWorkBudget bounds a unit's simulation work, summed replicas ×
	// epochs: one MaxSimBudget cell's worth, the most a single cell may
	// ask of a round-trip.
	shardWorkBudget = MaxSimBudget
	// shardKeptBudget bounds the per-replica waste values a unit's
	// results carry back (KeepReplicas cells). At up to 25 JSON bytes
	// each, 1<<17 of them stay under 3.3 MB, well inside the response cap
	// next to the rest of up to MaxShardCells results.
	shardKeptBudget = 1 << 17
)

// unitsPerWorker is how many dispatch units per runner worker the packer
// aims for: enough that the last units to finish leave workers idle only
// briefly, few enough that per-unit overhead (a shard round-trip and its
// two store calls) stays small next to the cells it carries.
const unitsPerWorker = 4

// shardLoad is what a run of cells asks of one shard.
type shardLoad struct {
	cells      int
	work, kept int64
}

func (l *shardLoad) add(o shardLoad) {
	l.cells += o.cells
	l.work += o.work
	l.kept += o.kept
}

// fits reports whether adding o keeps l within every shard limit.
func (l shardLoad) fits(o shardLoad) bool {
	return l.cells+o.cells <= MaxShardCells &&
		l.work+o.work <= shardWorkBudget &&
		l.kept+o.kept <= shardKeptBudget
}

// cellLoad estimates one cell's shard load: its simulation work (replicas
// × epochs; analytic cells have none) and, when it keeps them, the
// per-replica waste values its result carries (at most its replica cap).
func cellLoad(spec CellSpec) shardLoad {
	l := shardLoad{cells: 1}
	switch spec.Op {
	case OpSim:
		l.work = int64(spec.Reps) * int64(max(spec.Epochs, 1))
		if spec.Precision != nil && spec.Precision.KeepReplicas {
			l.kept = int64(spec.Reps)
		}
	case OpSilentSim, OpMLSim:
		l.work = int64(spec.Reps)
	}
	return l
}

// packUnits packs cohorts, in order, into dispatch units. A cell weighs
// its share of the cells plus its share of the simulation work, and a
// unit closes once it holds 1/(unitsPerWorker · workers) of the total
// weight: about ⌈todo / (unitsPerWorker · workers)⌉ cells when cells cost
// alike, fewer where they are heavy, and never more than
// unitsPerWorker · workers + 1 units while no limit binds. A unit also
// closes before a cohort would take it past MaxShardCells or a load
// budget. A cohort is never split, so one that alone exceeds a limit goes
// out as a unit of its own.
func packUnits(cohorts []cohort, workers int) []cohort {
	loads := make([]shardLoad, len(cohorts))
	var total shardLoad
	for i, co := range cohorts {
		for _, st := range co.cells {
			loads[i].add(cellLoad(st.spec))
		}
		total.add(loads[i])
	}
	weight := func(l shardLoad) float64 {
		w := float64(l.cells) / float64(total.cells)
		if total.work > 0 {
			w += float64(l.work) / float64(total.work)
		}
		return w
	}
	target := weight(total) / float64(unitsPerWorker*max(workers, 1))
	var out []cohort
	var cur []*cellState
	var load shardLoad
	flush := func() {
		if len(cur) > 0 {
			out = append(out, cohort{cells: cur})
			cur, load = nil, shardLoad{}
		}
	}
	for i, co := range cohorts {
		if !load.fits(loads[i]) {
			flush()
		}
		cur = append(cur, co.cells...)
		load.add(loads[i])
		if weight(load) >= target {
			flush()
		}
	}
	flush()
	return out
}

// ShardOutcome summarizes one executed shard. It is also the POST
// /v1/shards response body, so its field order is the wire order.
type ShardOutcome struct {
	// Results holds one result per input cell, in input order.
	Results []CellResult `json:"results"`
	// Tiers reports, per input cell, the cache tier that served it.
	Tiers []CellTier `json:"tiers"`
	// Executed and Cached partition the unique cells: Executed ran here,
	// Cached were served by the worker's cache (any tier).
	Executed int `json:"executed"`
	Cached   int `json:"cached"`
}

// ExecuteShard runs the cells through the cache's batch path (settle):
// one batched lookup (the memory tier, then a single store GetBatch),
// execution of the misses grouped into trace cohorts (cells sharing a
// failure process walk one stream per replica, drawn once; see
// execCohort), and a single PutBatch of what was executed. simWorkers
// bounds replica-level parallelism inside each simulation cell (<= 0: 1).
// The first cell error aborts the shard after the cells executed so far
// are written. Cells must be pre-validated by the caller.
func ExecuteShard(cache *CellCache, specs []CellSpec, simWorkers int) (*ShardOutcome, error) {
	if simWorkers <= 0 {
		simWorkers = 1
	}

	// Deduplicate within the shard (a well-behaved coordinator sends
	// unique cells, but the semantics must not depend on it).
	byHash := map[string]*cellState{}
	var unique []*cellState
	refs := make([]*cellState, len(specs))
	for i, spec := range specs {
		k := spec.key()
		st, ok := byHash[k.hash]
		if !ok {
			st = &cellState{spec: spec, key: k}
			byHash[k.hash] = st
			unique = append(unique, st)
		}
		refs[i] = st
	}

	var execErr error
	done := func(_ *cellState, err error) bool {
		if err != nil {
			execErr = err
		}
		return err == nil
	}
	cache.settle(unique, done, func(misses []*cellState) (executed []*cellState) {
		for _, co := range groupCohorts(misses) {
			cells, _ := cache.execCohort(co, simWorkers, done)
			executed = append(executed, cells...)
			if execErr != nil {
				break
			}
		}
		return executed
	})
	if execErr != nil {
		return nil, execErr
	}

	out := &ShardOutcome{
		Results: make([]CellResult, len(specs)),
		Tiers:   make([]CellTier, len(specs)),
	}
	for i, st := range refs {
		out.Results[i], out.Tiers[i] = st.result, st.tier
	}
	for _, st := range unique {
		if st.tier == TierExec {
			out.Executed++
		} else {
			out.Cached++
		}
	}
	return out, nil
}
