package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"abftckpt/internal/model"
)

// cohortInputs drive the randomized cohort properties: small pools force
// both key collisions (cells that must share a cohort) and distinctions.
type cohortInputs struct {
	SeedPick  []uint8
	MuPick    []uint8
	DistPick  []uint8
	ProtoPick []uint8
	Ops       []bool // true: sim cell, false: model cell
}

// cellsFrom builds a deterministic mixed cell list from the fuzzed inputs.
func cellsFrom(in cohortInputs) []CellSpec {
	protos := []string{ProtoPure, ProtoBi, ProtoAbft}
	dists := []*DistSpec{
		nil,
		{Name: DistExponential},
		{Name: DistWeibull, Shape: 0.7},
		{Name: DistGamma, Shape: 2},
	}
	n := len(in.Ops)
	if n > 24 {
		n = 24
	}
	pick := func(p []uint8, i, mod int) int {
		if len(p) == 0 {
			return i % mod
		}
		return int(p[i%len(p)]) % mod
	}
	var cells []CellSpec
	for i := 0; i < n; i++ {
		params := model.Fig7Params(float64(1+pick(in.MuPick, i, 3))*model.Hour, 0.8)
		c := CellSpec{
			Protocol: protos[pick(in.ProtoPick, i, 3)],
			Params:   &params,
		}
		if in.Ops[i] {
			c.Op = OpSim
			c.Reps = 8 * (1 + pick(in.SeedPick, i+1, 2))
			c.Seed = uint64(pick(in.SeedPick, i, 4))
			c.Dist = dists[pick(in.DistPick, i, len(dists))]
		} else {
			c.Op = OpModel
		}
		cells = append(cells, c)
	}
	return cells
}

// Cohort grouping is a partition of the planned cells: every unique sim
// cell lands in exactly one cohort, non-sim cells ride as singletons, cells
// grouped together share one process key and cells in different sim
// cohorts never do.
func TestQuickCohortGroupingIsPartition(t *testing.T) {
	prop := func(in cohortInputs) bool {
		seenHash := map[string]bool{}
		var order []*cellState
		for _, c := range cellsFrom(in) {
			k := c.key()
			if !seenHash[k.hash] {
				seenHash[k.hash] = true
				order = append(order, &cellState{spec: c, key: k})
			}
		}
		cohorts := groupCohorts(order)
		seen := map[*cellState]int{}
		total := 0
		for ci, co := range cohorts {
			total += len(co.cells)
			for _, st := range co.cells {
				if prev, dup := seen[st]; dup {
					t.Logf("cell %s in cohorts %d and %d", st.key.hash[:8], prev, ci)
					return false
				}
				seen[st] = ci
				key, isSim := SimProcessKey(st.spec)
				if !isSim {
					if len(co.cells) != 1 {
						t.Logf("non-sim cell grouped with others")
						return false
					}
					continue
				}
				if key != co.key {
					t.Logf("member key %+v != cohort key %+v", key, co.key)
					return false
				}
			}
		}
		if total != len(order) {
			t.Logf("partition covers %d of %d cells", total, len(order))
			return false
		}
		// Distinct sim cohorts carry distinct keys.
		keys := map[ProcessKey]bool{}
		for _, co := range cohorts {
			if _, isSim := SimProcessKey(co.cells[0].spec); !isSim {
				continue
			}
			if keys[co.key] {
				t.Logf("duplicate cohort key %+v", co.key)
				return false
			}
			keys[co.key] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// soloJSON executes each cell alone and returns its encoded result.
func soloJSON(t *testing.T, cells ...CellSpec) [][]byte {
	t.Helper()
	out := make([][]byte, len(cells))
	for i, c := range cells {
		res, err := c.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// jointJSON executes the cells as one trace cohort through execCohort, on
// the given replica workers, and returns the encoded results.
func jointJSON(t *testing.T, workers int, cells ...CellSpec) [][]byte {
	t.Helper()
	co := cohort{}
	for _, c := range cells {
		co.cells = append(co.cells, &cellState{spec: c, key: c.key()})
	}
	_, joint := NewCellCache("", 0).execCohort(co, workers, func(st *cellState, err error) bool {
		if err != nil {
			t.Fatal(err)
		}
		return true
	})
	if !joint {
		t.Fatalf("a cohort of %d cells was not walked jointly", len(cells))
	}
	out := make([][]byte, len(cells))
	for i, st := range co.cells {
		if st.tier != TierExec {
			t.Fatalf("cell %d settled from tier %q, want exec", i, st.tier)
		}
		var err error
		if out[i], err = json.Marshal(st.result); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// Equal process keys imply that a joint cohort walk gives every cell its
// solo result: two cells that agree on (distribution, MTBF, seed, reps,
// horizon bound) — however much their protocols, alphas, options or
// precision blocks differ — walk the same arrival streams, so the cohort's
// one shared stream serves both bit for bit.
func TestQuickProcessKeyEqualityImpliesCohortMatchesSolo(t *testing.T) {
	dists := []*DistSpec{
		{Name: DistExponential},
		{Name: DistWeibull, Shape: 0.7},
		{Name: DistLogNormal, Shape: 1.2},
	}
	prop := func(seed uint64, muPick, distPick, repsPick uint8, adaptive bool) bool {
		mu := float64(1+int(muPick)%4) * model.Hour
		reps := 4 + int(repsPick)%8
		pa := model.Fig7Params(mu, 0.3)
		pb := model.Fig7Params(mu, 0.9) // different alpha: same process
		d := dists[int(distPick)%len(dists)]
		a := CellSpec{Op: OpSim, Protocol: ProtoPure, Params: &pa, Reps: reps, Seed: seed % 16, Dist: d}
		b := CellSpec{Op: OpSim, Protocol: ProtoAbft, Params: &pb, Reps: reps, Seed: seed % 16, Dist: d,
			Options: model.Options{Safeguard: true}}
		if adaptive {
			b.Precision = &CellPrecision{RelCI: 0.2, Batch: 2, KeepReplicas: true}
		}
		ka, oka := SimProcessKey(a)
		kb, okb := SimProcessKey(b)
		if !oka || !okb || ka != kb {
			t.Logf("keys differ: %+v vs %+v", ka, kb)
			return false
		}
		solo, joint := soloJSON(t, a, b), jointJSON(t, 1+int(repsPick)%3, a, b)
		for i := range solo {
			if !bytes.Equal(solo[i], joint[i]) {
				t.Logf("cell %d: joint %s, solo %s", i, joint[i], solo[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// cohortCampaign is a small heatmap trio over one shared failure process:
// three protocols scanning the same grid with share_traces, so every grid
// point forms a three-cell cohort.
func cohortCampaign(t *testing.T) *Campaign {
	t.Helper()
	const js = `{
	  "name": "cohorts",
	  "seed": 11,
	  "reps": 12,
	  "scenarios": [
	    {"name": "hm_pure", "kind": "heatmap", "output": "sim", "protocol": "pure",
	     "share_traces": true,
	     "mtbf_minutes": {"from": 90, "to": 180, "count": 2}, "alphas": {"from": 0.2, "to": 0.8, "count": 2}},
	    {"name": "hm_bi", "kind": "heatmap", "output": "sim", "protocol": "bi",
	     "share_traces": true,
	     "mtbf_minutes": {"from": 90, "to": 180, "count": 2}, "alphas": {"from": 0.2, "to": 0.8, "count": 2}},
	    {"name": "hm_abft", "kind": "heatmap", "output": "sim", "protocol": "abft",
	     "share_traces": true,
	     "mtbf_minutes": {"from": 90, "to": 180, "count": 2}, "alphas": {"from": 0.2, "to": 0.8, "count": 2}}
	  ]
	}`
	c, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Cohort execution must change nothing observable except the work saved:
// artifacts byte-identical to per-cell execution, the same cache keys, and
// the report accounting for the cohorts it walked.
func TestRunnerCohortsBitIdenticalToPerCell(t *testing.T) {
	c := cohortCampaign(t)

	plan, err := PlanCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cohorts != 4 || plan.CohortCells != 12 {
		t.Fatalf("plan cohorts = %d/%d cells, want 4 cohorts of 12 cells", plan.Cohorts, plan.CohortCells)
	}

	withCohorts := &Runner{Cache: NewCellCache("", 0), Workers: 2}
	repOn, err := withCohorts.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	perCell := &Runner{Cache: NewCellCache("", 0), Workers: 2, DisableCohorts: true}
	repOff, err := perCell.Run(c)
	if err != nil {
		t.Fatal(err)
	}

	if repOn.Cohorts != 4 || repOn.CohortCells != 12 {
		t.Errorf("cohort run reports %d cohorts / %d replayed cells, want 4/12", repOn.Cohorts, repOn.CohortCells)
	}
	if repOff.Cohorts != 0 || repOff.CohortCells != 0 {
		t.Errorf("per-cell run reports cohort work: %d/%d", repOff.Cohorts, repOff.CohortCells)
	}
	if repOn.Executed != repOff.Executed || repOn.Unique != repOff.Unique {
		t.Errorf("executions differ: %d/%d vs %d/%d", repOn.Executed, repOn.Unique, repOff.Executed, repOff.Unique)
	}
	on, off := artifactCSVs(t, repOn), artifactCSVs(t, repOff)
	if len(on) != len(off) || len(on) == 0 {
		t.Fatalf("artifact sets differ: %d vs %d", len(on), len(off))
	}
	for name, csv := range on {
		if !bytes.Equal(off[name], csv) {
			t.Errorf("artifact %q differs between cohort and per-cell execution", name)
		}
	}
}

// A cohort member that walks past the shared stream's cap (a week of work
// at a 5-second MTBF with 1-second checkpoints: over 10^5 failures per
// replica, where the cap is 1<<16 arrivals) continues privately from the
// stream's generator state and still matches its solo run, next to
// members that stay inside the shared prefix (one of them adaptive), on
// one and on two replica workers.
func TestRunnerCohortMemberOutrunsStreamCap(t *testing.T) {
	long := model.Params{T0: model.Week, Alpha: 0.8, Mu: 5, C: 1, R: 1, D: 0.5, Rho: 0.8, Phi: 1.03, Recons: 0.1}
	short := long
	short.T0 = model.Hour
	a := CellSpec{Op: OpSim, Protocol: ProtoPure, Params: &long, Reps: 3, Seed: 7}
	b := CellSpec{Op: OpSim, Protocol: ProtoAbft, Params: &short, Reps: 3, Seed: 7}
	b.Epochs = 168 // the same horizon bound, so the same process key
	c := b
	c.Precision = &CellPrecision{RelCI: 1e-9, Batch: 2, KeepReplicas: true}
	ka, _ := SimProcessKey(a)
	if kb, _ := SimProcessKey(b); ka != kb {
		t.Fatalf("keys differ: %+v vs %+v", ka, kb)
	}
	solo := soloJSON(t, a, b, c)
	var res CellResult
	if err := json.Unmarshal(solo[0], &res); err != nil || res.Sim == nil || res.Sim.FaultsMean < 1<<17 {
		t.Fatalf("long cell: %s (err %v), want past 2^17 failures per replica", solo[0], err)
	}
	for _, workers := range []int{1, 2} {
		joint := jointJSON(t, workers, a, b, c)
		for i := range solo {
			if !bytes.Equal(solo[i], joint[i]) {
				t.Errorf("%d workers, cell %d: joint %s, solo %s", workers, i, joint[i], solo[i])
			}
		}
	}
}

// Worker lending: a campaign with fewer units than workers executes its sim
// cells with borrowed replica workers, bit-identical to fully serial runs.
func TestRunnerLendsIdleWorkersToCells(t *testing.T) {
	c := cohortCampaign(t)
	serial := &Runner{Cache: NewCellCache("", 0), Workers: 1}
	repSerial, err := serial.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// 4 cohorts, 16 workers: each cell runs with 4 replica workers.
	lending := &Runner{Cache: NewCellCache("", 0), Workers: 16}
	repLend, err := lending.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	a, b := artifactCSVs(t, repSerial), artifactCSVs(t, repLend)
	for name, csv := range a {
		if !bytes.Equal(b[name], csv) {
			t.Errorf("artifact %q differs with lent workers", name)
		}
	}
}

// share_traces aligns seeds across protocols; without it every cell owns a
// distinct process and no cohorts form.
func TestShareTracesControlsCohorts(t *testing.T) {
	c := cohortCampaign(t)
	for _, s := range c.Scenarios {
		s.Params.(*HeatmapParams).ShareTraces = false
	}
	plan, err := PlanCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cohorts != 0 || plan.CohortCells != 0 {
		t.Fatalf("without share_traces: %d cohorts / %d cells, want none", plan.Cohorts, plan.CohortCells)
	}
}

// share_traces is rejected where it cannot apply (analytic heatmaps and
// non-simulation kinds), like seed and reps.
func TestShareTracesValidation(t *testing.T) {
	load := func(js string) error {
		_, err := Load(strings.NewReader(js))
		return err
	}
	modelHeatmap := `{"name": "x", "scenarios": [
	  {"name": "m", "kind": "heatmap", "protocol": "abft", "share_traces": true}]}`
	if err := load(modelHeatmap); err == nil || !strings.Contains(err.Error(), "share_traces") {
		t.Errorf("model-output heatmap with share_traces: err = %v", err)
	}
	periods := `{"name": "x", "scenarios": [
	  {"name": "p", "kind": "periods", "share_traces": true}]}`
	if err := load(periods); err == nil || !strings.Contains(err.Error(), "share_traces") {
		t.Errorf("periods with share_traces: err = %v", err)
	}
	simHeatmap := `{"name": "x", "reps": 4, "scenarios": [
	  {"name": "s", "kind": "heatmap", "output": "sim", "protocol": "abft", "share_traces": true,
	   "mtbf_minutes": {"from": 60, "to": 120, "count": 2}, "alphas": {"from": 0, "to": 1, "count": 2}}]}`
	if err := load(simHeatmap); err != nil {
		t.Errorf("sim heatmap with share_traces must validate: %v", err)
	}
}
