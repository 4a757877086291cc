package scenario

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Plan describes an expanded campaign before execution: how many cells it
// references, how many are unique after cross-scenario deduplication, and
// what every scenario will produce. Dry runs and the campaign server's job
// status are both built from a Plan.
type Plan struct {
	// Campaign is the campaign name.
	Campaign string `json:"campaign"`
	// Cells counts cell references across all scenarios; Unique
	// deduplicates shared cells.
	Cells  int `json:"cells"`
	Unique int `json:"unique"`
	// Cohorts counts groups of two or more unique simulation cells sharing
	// one failure process (see SimProcessKey); CohortCells counts the cells
	// inside those groups. When the runner executes with cohorts enabled,
	// each group's failure streams are generated once and replayed.
	Cohorts     int `json:"cohorts,omitempty"`
	CohortCells int `json:"cohort_cells,omitempty"`
	// Scenarios lists the per-scenario breakdown in campaign order.
	Scenarios []ScenarioPlan `json:"scenarios"`
}

// ScenarioPlan is one scenario's slice of a Plan.
type ScenarioPlan struct {
	// Name and Kind identify the scenario.
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Cells counts the scenario's cell references (shared cells included).
	Cells int `json:"cells"`
	// Artifacts names the outputs the scenario will produce.
	Artifacts []string `json:"artifacts"`
}

// PlanCampaign validates and expands the campaign without executing
// anything, returning the cell plan. Cells are keyed on NumCPU
// goroutines, the pool a Runner with Workers 0 uses.
func PlanCampaign(c *Campaign) (*Plan, error) {
	e, err := expandCampaign(c, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	p := e.plan(c.Name)
	return &p, nil
}

// expandedCampaign is a campaign expanded and deduplicated in one pass:
// what PlanCampaign reports and Runner.Run executes.
type expandedCampaign struct {
	exs   []*expansion
	refs  [][]*cellState // per expansion, its cells' unique states in cell order
	order []*cellState   // unique cells in first-reference order
	cells int            // cell references across all scenarios
}

// expandCampaign validates and expands every scenario and deduplicates
// their cells by content hash, deriving each reference's key once. The
// scenarios are expanded (see Campaign.expandAll) and the keys derived
// (see keyCells) on up to workers goroutines; the dedup that follows is
// serial, so order, references and the key each unique cell keeps are the
// same for any worker count.
func expandCampaign(c *Campaign, workers int) (*expandedCampaign, error) {
	exs, err := c.expandAll(workers)
	if err != nil {
		return nil, err
	}
	e := &expandedCampaign{exs: exs, refs: make([][]*cellState, len(exs))}
	for _, ex := range exs {
		e.cells += len(ex.cells)
	}
	keys := keyCells(exs, e.cells, workers)
	unique := make(map[string]*cellState, e.cells)
	at := 0
	for i, ex := range exs {
		refs := make([]*cellState, len(ex.cells))
		for j, cell := range ex.cells {
			var k cellKey
			if keys != nil {
				k, keys[at+j] = keys[at+j], cellKey{}
			} else {
				k = cell.key()
			}
			// A repeat reference shares the first one's state; its own
			// key is garbage from here on.
			st, ok := unique[k.hash]
			if !ok {
				st = &cellState{spec: cell, key: k}
				unique[k.hash] = st
				e.order = append(e.order, st)
			}
			refs[j] = st
		}
		at += len(ex.cells)
		e.refs[i] = refs
	}
	return e, nil
}

// keyChunk is how many consecutive cell references of one expansion a
// keying claim covers: large enough that the claim is noise next to 64
// canonical encodes and SHA-256 sums, small enough that the last claims
// balance the pool.
const keyChunk = 64

// keyCells derives the key of every cell reference, in campaign order
// (expansion by expansion, cell by cell), claiming chunks of references
// on up to workers goroutines (see claim), each writing only its own
// slots. It returns nil when there is at most one worker or one chunk of
// references: the caller then keys inline, with no slots.
func keyCells(exs []*expansion, refs, workers int) []cellKey {
	if workers <= 1 || refs <= keyChunk {
		return nil
	}
	type span struct{ ex, at, lo, hi int }
	var spans []span
	at := 0
	for i, ex := range exs {
		for lo := 0; lo < len(ex.cells); lo += keyChunk {
			spans = append(spans, span{ex: i, at: at, lo: lo, hi: min(lo+keyChunk, len(ex.cells))})
		}
		at += len(ex.cells)
	}
	keys := make([]cellKey, refs)
	claim(len(spans), workers, func(n int) {
		sp := spans[n]
		for j, cell := range exs[sp.ex].cells[sp.lo:sp.hi] {
			keys[sp.at+sp.lo+j] = cell.key()
		}
	})
	return keys
}

// claim calls do(i) once for every i in [0, n): the caller and up to
// workers-1 goroutines each claim the next index until none is left, and
// claim returns once every call has. With at most one worker or one item
// it runs inline and starts no goroutine. do must be safe to call
// concurrently for distinct indices.
func claim(n, workers int, do func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			do(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// plan describes the expanded campaign. Grouping its unique cells into
// cohorts is work of its own, done only when a plan is asked for.
func (e *expandedCampaign) plan(name string) Plan {
	p := Plan{Campaign: name, Cells: e.cells, Unique: len(e.order)}
	for _, co := range groupCohorts(e.order) {
		if len(co.cells) > 1 {
			p.Cohorts++
			p.CohortCells += len(co.cells)
		}
	}
	for i, ex := range e.exs {
		p.Scenarios = append(p.Scenarios, ScenarioPlan{
			Name:      ex.spec.Name,
			Kind:      ex.spec.Kind,
			Cells:     len(e.refs[i]),
			Artifacts: append([]string(nil), ex.artifacts...),
		})
	}
	return p
}
