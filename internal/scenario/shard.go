package scenario

import "abftckpt/internal/sim"

// Shard execution: a worker serving POST /v1/shards runs a batch of cells
// through its cache with exactly the semantics of a local campaign run —
// trace-cohort grouping included, so a cohort dispatched to one worker
// still materializes its failure process once. The coordinator keeps whole
// cohorts on one worker for precisely this reason.

// ShardOutcome summarizes one executed shard.
type ShardOutcome struct {
	// Results holds one result per input cell, in input order.
	Results []CellResult
	// Tiers reports, per input cell, the cache tier that served it.
	Tiers []CellTier
	// Executed and Cached partition the cells: Executed ran here, Cached
	// were served by the worker's cache (any tier).
	Executed, Cached int
}

// ExecuteShard runs the cells through the cache, grouping simulation cells
// that share a failure process into trace cohorts (their arrival streams
// are generated once and replayed; see groupCohorts). simWorkers bounds
// replica-level parallelism inside each simulation cell (<= 0: 1);
// arenaBudget bounds one cohort's materialized arena (<= 0:
// DefaultArenaBudget). The first cell error aborts the shard. Cells must
// be pre-validated by the caller.
func ExecuteShard(cache *CellCache, specs []CellSpec, simWorkers int, arenaBudget int64) (*ShardOutcome, error) {
	if arenaBudget <= 0 {
		arenaBudget = DefaultArenaBudget
	}
	if simWorkers <= 0 {
		simWorkers = 1
	}

	// Deduplicate within the shard (a well-behaved coordinator sends
	// unique cells, but the semantics must not depend on it).
	type shardCell struct {
		spec CellSpec
		key  cellKey
	}
	byHash := map[string]shardCell{}
	var order []string
	hashes := make([]string, len(specs))
	for i, spec := range specs {
		k := spec.key()
		hashes[i] = k.hash
		if _, ok := byHash[k.hash]; !ok {
			byHash[k.hash] = shardCell{spec: spec, key: k}
			order = append(order, k.hash)
		}
	}

	results := make(map[string]CellResult, len(order))
	tiers := make(map[string]CellTier, len(order))
	for _, co := range groupCohorts(order, func(h string) CellSpec { return byHash[h].spec }) {
		var arena *sim.TraceArena
		if len(co.hashes) > 1 {
			cells := make([]CellSpec, len(co.hashes))
			for i, h := range co.hashes {
				cells[i] = byHash[h].spec
			}
			arena = buildCohortArena(co, cells, arenaBudget)
		}
		for _, h := range co.hashes {
			cell := byHash[h]
			opts := ExecOptions{Workers: simWorkers, Arena: arena}
			res, tier, err := cache.do(cell.key, func() (CellResult, error) {
				return cell.spec.ExecuteOpts(opts)
			})
			if err != nil {
				return nil, err
			}
			results[h] = res
			tiers[h] = tier
		}
	}

	out := &ShardOutcome{
		Results: make([]CellResult, len(specs)),
		Tiers:   make([]CellTier, len(specs)),
	}
	counted := map[string]bool{}
	for i, h := range hashes {
		out.Results[i] = results[h]
		out.Tiers[i] = tiers[h]
		if counted[h] {
			continue
		}
		counted[h] = true
		if tiers[h] == TierExec {
			out.Executed++
		} else {
			out.Cached++
		}
	}
	return out, nil
}
