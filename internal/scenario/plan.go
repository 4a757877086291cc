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
	exs    []*expansion
	hashes [][]string            // per expansion, its cells' hashes in cell order
	states map[string]*cellState // unique cells by hash
	order  []string              // unique cells in first-reference order
	refs   int                   // cell references across all scenarios
}

// expandCampaign validates and expands every scenario and deduplicates
// their cells by content hash, deriving each reference's key once. The
// keys are derived on up to workers goroutines (see keyCells); the dedup
// that follows is serial, so order, hashes and the key each unique cell
// keeps are the same for any worker count.
func expandCampaign(c *Campaign, workers int) (*expandedCampaign, error) {
	exs, err := c.expandAll()
	if err != nil {
		return nil, err
	}
	e := &expandedCampaign{exs: exs, hashes: make([][]string, len(exs)), states: map[string]*cellState{}}
	for _, ex := range exs {
		e.refs += len(ex.cells)
	}
	keys := keyCells(exs, e.refs, workers)
	at := 0
	for i, ex := range exs {
		hashes := make([]string, len(ex.cells))
		for j, cell := range ex.cells {
			var k cellKey
			if keys != nil {
				k, keys[at+j] = keys[at+j], cellKey{}
			} else {
				k = cell.key()
			}
			if st, ok := e.states[k.hash]; ok {
				// A repeat reference shares the first one's hash string;
				// its own key is garbage from here on.
				k = st.key
			} else {
				e.states[k.hash] = &cellState{spec: cell, key: k}
				e.order = append(e.order, k.hash)
			}
			hashes[j] = k.hash
		}
		at += len(ex.cells)
		e.hashes[i] = hashes
	}
	return e, nil
}

// keyChunk is how many consecutive cell references of one expansion a
// keying goroutine claims at a time: large enough that the claim is
// noise next to 64 canonical encodes and SHA-256 sums, small enough that
// the last claims balance the pool.
const keyChunk = 64

// keyCells derives the key of every cell reference, in campaign order
// (expansion by expansion, cell by cell), on up to workers goroutines,
// each writing only its own claimed slots. It returns nil when there is
// at most one worker or one chunk of references: the caller then keys
// inline, with no slots and no goroutines.
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
	var next atomic.Int64
	derive := func() {
		for n := int(next.Add(1)) - 1; n < len(spans); n = int(next.Add(1)) - 1 {
			sp := spans[n]
			for j, cell := range exs[sp.ex].cells[sp.lo:sp.hi] {
				keys[sp.at+sp.lo+j] = cell.key()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(spans)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			derive()
		}()
	}
	derive()
	wg.Wait()
	return keys
}

// plan describes the expanded campaign. Grouping its unique cells into
// cohorts is work of its own, done only when a plan is asked for.
func (e *expandedCampaign) plan(name string) Plan {
	p := Plan{Campaign: name, Cells: e.refs, Unique: len(e.order)}
	for _, co := range groupCohorts(e.order, func(h string) CellSpec { return e.states[h].spec }) {
		if len(co.hashes) > 1 {
			p.Cohorts++
			p.CohortCells += len(co.hashes)
		}
	}
	for i, ex := range e.exs {
		p.Scenarios = append(p.Scenarios, ScenarioPlan{
			Name:      ex.spec.Name,
			Kind:      ex.spec.Kind,
			Cells:     len(e.hashes[i]),
			Artifacts: append([]string(nil), ex.artifacts...),
		})
	}
	return p
}
