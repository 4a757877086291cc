package scenario

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
// anything, returning the cell plan.
func PlanCampaign(c *Campaign) (*Plan, error) {
	e, err := expandCampaign(c)
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
// their cells by content hash, deriving each cell's key once.
func expandCampaign(c *Campaign) (*expandedCampaign, error) {
	exs, err := c.expandAll()
	if err != nil {
		return nil, err
	}
	e := &expandedCampaign{exs: exs, hashes: make([][]string, len(exs)), states: map[string]*cellState{}}
	for i, ex := range exs {
		hashes := make([]string, len(ex.cells))
		for j, cell := range ex.cells {
			k := cell.key()
			if _, ok := e.states[k.hash]; !ok {
				e.states[k.hash] = &cellState{spec: cell, key: k}
				e.order = append(e.order, k.hash)
			}
			hashes[j] = k.hash
		}
		e.hashes[i] = hashes
		e.refs += len(ex.cells)
	}
	return e, nil
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
