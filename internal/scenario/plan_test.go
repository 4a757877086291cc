package scenario

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestExpandCampaignWorkerInvariance pins the parallel key phase of
// planning: for every committed campaign, expanding on 1, 2, 3 and 8
// workers gives the same unique cells in the same first-reference order,
// every reference pointing at its unique cell's state, the same
// per-scenario hashes read through those states, and, per unique cell,
// the same spec and canonical bytes, each key matching the one
// CellSpec.Hash derives alone.
func TestExpandCampaignWorkerInvariance(t *testing.T) {
	files, err := filepath.Glob(exampleCampaign("*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example campaigns: %v", err)
	}
	parallel, parallelExpand := false, false
	for _, file := range files {
		c, err := LoadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		base, err := expandCampaign(c, 1)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		parallel = parallel || base.cells > keyChunk
		parallelExpand = parallelExpand || len(c.Scenarios) > 1
		baseHashes := refHashes(t, base)
		for _, workers := range []int{2, 3, 8} {
			got, err := expandCampaign(c, workers)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", file, workers, err)
			}
			if got.cells != base.cells || len(got.order) != len(base.order) || !reflect.DeepEqual(refHashes(t, got), baseHashes) {
				t.Fatalf("%s, %d workers: unique cells or per-scenario hashes differ from one worker's", file, workers)
			}
			for i, want := range base.order {
				st := got.order[i]
				if st.key.hash != want.key.hash || !bytes.Equal(st.key.canonical, want.key.canonical) ||
					!bytes.Equal(st.spec.Canonical(), want.spec.Canonical()) {
					t.Fatalf("%s, %d workers: unique cell %d (%s) differs from one worker's", file, workers, i, want.key.hash[:12])
				}
			}
		}
	}
	if !parallel {
		t.Fatalf("no example campaign has more than %d cell references: the parallel key phase went untested", keyChunk)
	}
	if !parallelExpand {
		t.Fatal("no example campaign has more than one scenario: parallel expansion went untested")
	}
}

// TestExpandCampaignFirstError checks that expanding on a pool reports the
// first failing scenario in campaign order, as one worker does, however
// the expansions interleave.
func TestExpandCampaignFirstError(t *testing.T) {
	c, err := LoadFile(exampleCampaign("paper.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{3, 9, 12} {
		broken := *c.Scenarios[i]
		broken.Reps = -1
		c.Scenarios[i] = &broken
	}
	want := "scenario " + `"` + c.Scenarios[3].Name + `"` + ": reps must be non-negative"
	for _, workers := range []int{1, 2, 3, 8} {
		for range 5 {
			if _, err := expandCampaign(c, workers); err == nil || err.Error() != want {
				t.Fatalf("%d workers: err %v, want %q", workers, err, want)
			}
		}
	}
}

// refHashes checks that every reference of the expanded campaign points at
// the one state of its unique cell, whose hash CellSpec.Hash derives from
// the referencing cell alone, and that every unique cell is referenced.
// It returns the per-scenario hashes, read through the states.
func refHashes(t *testing.T, e *expandedCampaign) [][]string {
	t.Helper()
	unique := map[string]*cellState{}
	for _, st := range e.order {
		if unique[st.key.hash] != nil {
			t.Fatalf("cell %s is unique twice", st.key.hash[:12])
		}
		unique[st.key.hash] = st
	}
	referenced := map[*cellState]bool{}
	hashes := make([][]string, len(e.refs))
	for i, ex := range e.exs {
		if len(e.refs[i]) != len(ex.cells) {
			t.Fatalf("scenario %d: %d references for %d cells", i, len(e.refs[i]), len(ex.cells))
		}
		for j, st := range e.refs[i] {
			if h := ex.cells[j].Hash(); st != unique[h] {
				t.Fatalf("scenario %d cell %d: reference is not the state of unique cell %s", i, j, h[:12])
			}
			referenced[st] = true
			hashes[i] = append(hashes[i], st.key.hash)
		}
	}
	if len(referenced) != len(e.order) {
		t.Fatalf("%d of %d unique cells referenced", len(referenced), len(e.order))
	}
	return hashes
}

// TestRunnerLeavesNoGoroutines checks that planning and running a
// campaign on a worker pool stop every goroutine they start, whether the
// run succeeds, fails validation, walks trace cohorts on lent replica
// workers, dispatches its units through ExecBatch, or fails there with an
// error or a cell's panic.
func TestRunnerLeavesNoGoroutines(t *testing.T) {
	good, err := Load(strings.NewReader(`{
  "name": "pool",
  "scenarios": [
    {
      "name": "grid",
      "kind": "heatmap",
      "protocol": "abft",
      "mtbf_minutes": {"from": 60, "to": 240, "count": 12},
      "alphas": {"from": 0, "to": 1, "count": 12}
    }
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	// A second scenario that loads but does not validate at expansion.
	broken := *good.Scenarios[0]
	broken.Name, broken.Reps = "broken", -1
	bad := *good
	bad.Scenarios = append(bad.Scenarios[:1:1], &broken)

	settled := func(what string, start int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > start {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines, started with %d", what, runtime.NumGoroutine(), start)
			}
			time.Sleep(time.Millisecond)
		}
	}
	start := runtime.NumGoroutine()
	r := Runner{Workers: 4}
	rep, err := r.Run(good)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells <= keyChunk {
		t.Fatalf("%d cell references: the parallel key phase did not run", rep.Cells)
	}
	settled("a run", start)
	if _, err := r.Run(&bad); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("a campaign with an invalid scenario: err %v, want its validation error", err)
	}
	settled("a failed run", start)
	if _, err := PlanCampaign(good); err != nil {
		t.Fatal(err)
	}
	settled("PlanCampaign", start)
	// Four three-cell cohorts on 16 workers: each joint walk runs on four
	// lent replica workers.
	lending := Runner{Cache: NewCellCache("", 0), Workers: 16}
	if rep, err := lending.Run(cohortCampaign(t)); err != nil || rep.Cohorts != 4 {
		t.Fatalf("a cohort run with lent workers: err %v, report %+v, want 4 joint walks", err, rep)
	}
	settled("a cohort run with lent workers", start)

	worker := NewCellCache("", 0)
	shard := func(specs []CellSpec) ([]CellResult, error) {
		out, err := ExecuteShard(worker, specs, 1)
		if err != nil {
			return nil, err
		}
		return out.Results, nil
	}
	cells := uniqueCells(t, good)
	victim := cells[len(cells)/2].key.hash
	for _, tc := range []struct {
		what, wantErr string
		hook          func([]CellSpec) ([]CellResult, error)
	}{
		{"a run under ExecBatch", "", shard},
		{"a run whose ExecBatch fails", "worker down", func([]CellSpec) ([]CellResult, error) {
			return nil, errors.New("worker down")
		}},
		{"a run whose cell panics", "execution panicked: cell exploded", func(specs []CellSpec) ([]CellResult, error) {
			for _, spec := range specs {
				if spec.Hash() == victim {
					panic("cell exploded")
				}
			}
			return shard(specs)
		}},
	} {
		r := Runner{Cache: NewCellCache("", 0), Workers: 4, ExecBatch: tc.hook}
		rep, err := r.Run(good)
		switch {
		case tc.wantErr == "" && (err != nil || rep.Executed != rep.Unique):
			t.Fatalf("%s: err %v, want every cell executed", tc.what, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Fatalf("%s: err %v, want %q", tc.what, err, tc.wantErr)
		}
		settled(tc.what, start)
	}
}
