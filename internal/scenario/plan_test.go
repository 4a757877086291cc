package scenario

import (
	"bytes"
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
// the same per-scenario hashes, and, per unique cell, the same spec and
// canonical bytes, each key matching the one CellSpec.Hash derives alone.
func TestExpandCampaignWorkerInvariance(t *testing.T) {
	files, err := filepath.Glob(exampleCampaign("*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example campaigns: %v", err)
	}
	parallel := false
	for _, file := range files {
		c, err := LoadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		base, err := expandCampaign(c, 1)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		parallel = parallel || base.refs > keyChunk
		for i, ex := range base.exs {
			for j, cell := range ex.cells {
				if h := base.hashes[i][j]; h != cell.Hash() {
					t.Fatalf("%s: scenario %d cell %d: hash %s, CellSpec.Hash %s", file, i, j, h, cell.Hash())
				}
			}
		}
		for _, workers := range []int{2, 3, 8} {
			got, err := expandCampaign(c, workers)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", file, workers, err)
			}
			if got.refs != base.refs || !reflect.DeepEqual(got.order, base.order) || !reflect.DeepEqual(got.hashes, base.hashes) {
				t.Fatalf("%s, %d workers: order or hashes differ from one worker's", file, workers)
			}
			for _, h := range base.order {
				want, st := base.states[h], got.states[h]
				if st == nil || st.key.hash != h || !bytes.Equal(st.key.canonical, want.key.canonical) ||
					!bytes.Equal(st.spec.Canonical(), want.spec.Canonical()) {
					t.Fatalf("%s, %d workers: unique cell %s differs from one worker's", file, workers, h)
				}
			}
			if len(got.states) != len(base.states) {
				t.Fatalf("%s, %d workers: %d unique cells, want %d", file, workers, len(got.states), len(base.states))
			}
		}
	}
	if !parallel {
		t.Fatalf("no example campaign has more than %d cell references: the parallel key phase went untested", keyChunk)
	}
}

// TestRunnerLeavesNoGoroutines checks that planning and running a
// campaign on a worker pool stop every goroutine they start, whether the
// run succeeds or fails validation.
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
}
