package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"abftckpt/internal/store"
)

// testCampaign mixes every cell op: a model heatmap, a diff heatmap reusing
// its model cells, a scaling chart, a points table, a periods table, an
// ablation and a small simulation-backed sensitivity scan.
func testCampaign() *Campaign {
	nodes := 1_000_000.0
	return &Campaign{
		Name: "test",
		Reps: 3,
		Scenarios: []*Spec{
			{Name: "hm", Kind: KindHeatmap, Params: &HeatmapParams{Protocol: ProtoAbft,
				MTBFMinutes: &Axis{Values: []float64{60, 240}},
				Alphas:      &Axis{Values: []float64{0, 1}}}},
			{Name: "hd", Kind: KindHeatmap, Params: &HeatmapParams{Protocol: ProtoAbft, Output: OutputDiff,
				MTBFMinutes: &Axis{Values: []float64{60, 240}},
				Alphas:      &Axis{Values: []float64{0, 1}}}},
			{Name: "sc", Kind: KindScaling, Params: &ScalingParams{
				Nodes: &Axis{Values: []float64{10_000, 1_000_000}},
				Series: []SeriesSpec{
					{Platform: "paper-fig10", Protocol: ProtoPure},
					{Platform: "paper-fig10", Protocol: ProtoAbft},
				}}},
			{Name: "pt", Kind: KindPoints, Params: &PointsParams{AtNodes: &nodes,
				Rows: []PointSpec{{Label: "pure", Platform: "paper-fig10", Protocol: ProtoPure}}}},
			{Name: "pd", Kind: KindPeriods},
			{Name: "ab", Kind: KindAblation, Params: &AblationParams{Variant: VariantSafeguard,
				Nodes: &Axis{Values: []float64{1_000_000}}}},
			{Name: "sn", Kind: KindSensitivity, Params: &SensitivityParams{
				Cases: []CaseSpec{{Name: "exponential", Dist: DistExponential}}}},
		},
	}
}

func artifactCSVs(t *testing.T, rep *Report) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, a := range rep.Artifacts {
		var buf bytes.Buffer
		if err := a.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		out[a.Name] = buf.Bytes()
	}
	return out
}

// TestRunnerCacheRerun is the acceptance check of the campaign cache:
// rerunning an unchanged campaign hits the cache for every unique cell and
// re-executes zero cells, while producing byte-identical artifacts.
func TestRunnerCacheRerun(t *testing.T) {
	cache := t.TempDir()
	c := testCampaign()
	// Each run opens the cache afresh, so reruns are served by the disk
	// tier rather than by the memory tier of an earlier run.
	run := func(c *Campaign) (*Report, error) {
		return (&Runner{Cache: NewCellCache(cache, 0), Workers: 4}).Run(c)
	}
	first, err := run(c)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != first.Unique || first.CacheHits != 0 {
		t.Fatalf("cold run: executed=%d cached=%d unique=%d", first.Executed, first.CacheHits, first.Unique)
	}
	second, err := run(testCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 0 {
		t.Fatalf("warm rerun executed %d cells, want 0", second.Executed)
	}
	if second.CacheHits != second.Unique {
		t.Fatalf("warm rerun: cached=%d unique=%d", second.CacheHits, second.Unique)
	}
	a, b := artifactCSVs(t, first), artifactCSVs(t, second)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("artifact count changed: %d vs %d", len(a), len(b))
	}
	for name, csv := range a {
		if !bytes.Equal(csv, b[name]) {
			t.Errorf("artifact %s differs between cold and warm run", name)
		}
	}
	// Changing the campaign invalidates only the touched cells.
	c3 := testCampaign()
	c3.Reps = 4 // only simulation cells depend on reps
	third, err := run(c3)
	if err != nil {
		t.Fatal(err)
	}
	// The 2x2 diff-heatmap grid plus one sensitivity case x three
	// protocols are the only simulation cells; everything analytic stays
	// cached.
	if third.Executed != 7 {
		t.Fatalf("reps change should re-execute exactly the 7 sim cells, got %d", third.Executed)
	}
}

// TestRunnerDedup checks that the diff heatmap reuses the model heatmap's
// cells instead of recomputing them.
func TestRunnerDedup(t *testing.T) {
	c := testCampaign()
	r := &Runner{Workers: 2}
	rep, err := r.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unique >= rep.Cells {
		t.Fatalf("expected shared cells: unique=%d cells=%d", rep.Unique, rep.Cells)
	}
}

// TestRunnerStreaming checks the event and artifact callbacks fire for
// every unique cell and every artifact before Run returns.
func TestRunnerStreaming(t *testing.T) {
	events, arts := 0, 0
	r := &Runner{
		Workers:    2,
		OnEvent:    func(CellEvent) { events++ },
		OnArtifact: func(Artifact) { arts++ },
	}
	rep, err := r.Run(testCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if events != rep.Unique {
		t.Errorf("events=%d, want one per unique cell (%d)", events, rep.Unique)
	}
	if arts != len(rep.Artifacts) {
		t.Errorf("artifact callbacks=%d, want %d", arts, len(rep.Artifacts))
	}
	// Scaling specs emit two charts; the report keeps campaign order.
	wantNames := []string{"hm", "hd", "sc_waste", "sc_faults", "pt", "pd", "ab", "sn"}
	if len(rep.Artifacts) != len(wantNames) {
		t.Fatalf("artifact count %d, want %d", len(rep.Artifacts), len(wantNames))
	}
	for i, a := range rep.Artifacts {
		if a.Name != wantNames[i] {
			t.Errorf("artifact %d = %q, want %q", i, a.Name, wantNames[i])
		}
	}
}

// TestRunnerWorkerInvariance checks results do not depend on the worker
// count (cells address their random streams absolutely).
func TestRunnerWorkerInvariance(t *testing.T) {
	r1 := &Runner{Workers: 1}
	r8 := &Runner{Workers: 8}
	rep1, err := r1.Run(testCampaign())
	if err != nil {
		t.Fatal(err)
	}
	rep8, err := r8.Run(testCampaign())
	if err != nil {
		t.Fatal(err)
	}
	a, b := artifactCSVs(t, rep1), artifactCSVs(t, rep8)
	for name, csv := range a {
		if !bytes.Equal(csv, b[name]) {
			t.Errorf("artifact %s depends on the worker count", name)
		}
	}
}

// TestCacheCorruptionDegradesToMiss checks a damaged cache file is
// re-executed, not trusted.
func TestCacheCorruptionDegradesToMiss(t *testing.T) {
	cache := t.TempDir()
	// Each run opens the cache afresh, so reruns are served by the disk
	// tier rather than by the memory tier of an earlier run.
	run := func(c *Campaign) (*Report, error) {
		return (&Runner{Cache: NewCellCache(cache, 0), Workers: 2}).Run(c)
	}
	if _, err := run(testCampaign()); err != nil {
		t.Fatal(err)
	}
	// Corrupt every cache file.
	err := filepath.Walk(cache, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		return os.WriteFile(path, []byte("not json"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(testCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 0 || rep.Executed != rep.Unique {
		t.Fatalf("corrupt cache should miss everywhere: hits=%d executed=%d", rep.CacheHits, rep.Executed)
	}
}

// TestRunnerRejectsInvalid checks Run validates before executing.
func TestRunnerRejectsInvalid(t *testing.T) {
	r := &Runner{}
	if _, err := r.Run(nil); err == nil {
		t.Error("nil campaign should fail")
	}
	if _, err := r.Run(&Campaign{Name: "x"}); err == nil {
		t.Error("empty campaign should fail")
	}
	bad := testCampaign()
	bad.Scenarios[0].Params.(*HeatmapParams).Protocol = "bogus"
	if _, err := r.Run(bad); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("invalid spec should fail with a protocol error, got %v", err)
	}
}

// trafficCampaign is packCampaign plus a 100-cell model heatmap: multi-
// cell cohorts, singletons, and more unique cells than one preload chunk.
func trafficCampaign(t *testing.T) *Campaign {
	t.Helper()
	c := packCampaign(t)
	c.Scenarios = append(c.Scenarios, &Spec{Name: "grid", Kind: KindHeatmap, Params: &HeatmapParams{Protocol: ProtoPure,
		MTBFMinutes: &Axis{Values: []float64{60, 90, 120, 180, 240, 360, 480, 720, 960, 1440}},
		Alphas:      &Axis{Values: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}}}})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunnerStoreTraffic pins a local run's store traffic: every store read
// happens in the preload, one GetBatch per chunk of preloadChunk unique
// cells and no per-key Get, and every write after execution, one PutBatch
// per executed cohort (singletons included), with no per-cell Put. A warm
// rerun reads in the same chunks and writes nothing.
func TestRunnerStoreTraffic(t *testing.T) {
	c := trafficCampaign(t)
	todo := uniqueCells(t, c)
	units := groupCohorts(todo)
	multi := 0
	for _, co := range units {
		if len(co.cells) > 1 {
			multi++
		}
	}
	if multi == 0 || multi == len(units) {
		t.Fatalf("campaign has %d multi-cell cohorts of %d units; want both kinds", multi, len(units))
	}
	chunks := int64((len(todo) + preloadChunk - 1) / preloadChunk)
	if chunks < 2 {
		t.Fatalf("%d unique cells fit one preload chunk; want several", len(todo))
	}
	cnt := &countingStore{ResultStore: store.WithChecksum(store.NewMemory())}

	// {Get, Put, GetBatch, PutBatch}
	r := Runner{Cache: NewCellCacheStore(cnt, 0), Workers: 2}
	cold, err := r.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Executed != cold.Unique {
		t.Fatalf("cold run executed %d of %d cells", cold.Executed, cold.Unique)
	}
	if got, want := cnt.traffic(), [4]int64{0, 0, chunks, int64(len(units))}; got != want {
		t.Errorf("cold run traffic %v, want %v: one GetBatch per preload chunk, one PutBatch per cohort", got, want)
	}

	r = Runner{Cache: NewCellCacheStore(cnt, 0), Workers: 2}
	warm, err := r.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Executed != 0 {
		t.Fatalf("warm run executed %d cells", warm.Executed)
	}
	if got, want := cnt.traffic(), [4]int64{0, 0, chunks, 0}; got != want {
		t.Errorf("warm run traffic %v, want %v: one GetBatch per preload chunk and no write", got, want)
	}
}

// TestRunnerExecBatchStoreTraffic pins the coordinator side of a run:
// after the preload, each dispatched unit is read back with one GetBatch,
// and the cells the store lacked are written with one PutBatch per unit.
// Over a store the workers share, the read-back finds every cell and
// writes nothing.
func TestRunnerExecBatchStoreTraffic(t *testing.T) {
	c := trafficCampaign(t)
	var units atomic.Int64
	own := &countingStore{ResultStore: store.WithChecksum(store.NewMemory())}
	r := Runner{Cache: NewCellCacheStore(own, 0), Workers: 2, ExecBatch: func(specs []CellSpec) ([]CellResult, error) {
		units.Add(1)
		out := make([]CellResult, len(specs))
		for i, spec := range specs {
			res, err := spec.Execute()
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}}
	rep, err := r.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	chunks := int64((rep.Unique + preloadChunk - 1) / preloadChunk)
	n := units.Swap(0)
	if n < 2 || rep.Executed != rep.Unique {
		t.Fatalf("%d units, %d of %d cells executed; want several units and every cell", n, rep.Executed, rep.Unique)
	}
	if got, want := own.traffic(), [4]int64{0, 0, chunks + n, n}; got != want {
		t.Errorf("own store traffic %v, want %v: preload chunks plus one GetBatch and one PutBatch per unit", got, want)
	}

	shared := store.NewMemory()
	worker := NewCellCacheStore(store.WithChecksum(shared), 0)
	coord := &countingStore{ResultStore: store.WithChecksum(shared)}
	r = Runner{Cache: NewCellCacheStore(coord, 0), Workers: 2, ExecBatch: func(specs []CellSpec) ([]CellResult, error) {
		units.Add(1)
		out, err := ExecuteShard(worker, specs, 1)
		if err != nil {
			return nil, err
		}
		return out.Results, nil
	}}
	if rep, err = r.Run(c); err != nil {
		t.Fatal(err)
	}
	n = units.Swap(0)
	if got, want := coord.traffic(), [4]int64{0, 0, chunks + n, 0}; got != want {
		t.Errorf("shared store traffic %v, want %v: one GetBatch per unit and no write", got, want)
	}
	if rep.Executed != 0 || rep.CacheHits != rep.Unique {
		t.Errorf("shared store: executed %d, hits %d of %d; want every cell read back", rep.Executed, rep.CacheHits, rep.Unique)
	}
}

// TestRunnerExecBatchPanicIsError: a panic in the ExecBatch hook fails the
// run with an error naming the unit's cell, instead of killing the
// process, and the run does not hang on the units left.
func TestRunnerExecBatchPanicIsError(t *testing.T) {
	r := Runner{Cache: NewCellCache("", 0), Workers: 2, ExecBatch: func([]CellSpec) ([]CellResult, error) {
		panic("hook exploded")
	}}
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(testCampaign())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "execution panicked: hook exploded") || !strings.HasPrefix(err.Error(), "scenario: cell ") {
			t.Fatalf("err = %v, want a cell execution-panicked error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run hung after a panicking unit")
	}
}

// TestRunnerExecBatchCountMismatchIsError: a hook that returns more or
// fewer results than it was given cells fails the run with an error
// saying so, and caches nothing from that unit.
func TestRunnerExecBatchCountMismatchIsError(t *testing.T) {
	for _, extra := range []int{-1, 1} {
		cache := NewCellCache("", 0)
		r := Runner{Cache: cache, Workers: 2, ExecBatch: func(specs []CellSpec) ([]CellResult, error) {
			return make([]CellResult, len(specs)+extra), nil
		}}
		if _, err := r.Run(testCampaign()); err == nil || !strings.Contains(err.Error(), "ExecBatch returned") {
			t.Errorf("%+d results: err = %v, want a result-count error", extra, err)
		}
		if st := cache.Stats(); st.Executed != 0 {
			t.Errorf("%+d results: %d cells cached from a bad unit", extra, st.Executed)
		}
	}
}
