package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"abftckpt/internal/store"
)

// packCampaign is testCampaign plus a share_traces heatmap trio, so the
// cells left to run mix singletons with three-cell trace cohorts.
func packCampaign(t *testing.T) *Campaign {
	t.Helper()
	c := testCampaign()
	c.Scenarios = append(c.Scenarios, cohortCampaign(t).Scenarios...)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// uniqueCells returns the campaign's unique cells in first-reference
// order: the todo list of a run over a cold cache.
func uniqueCells(t *testing.T, c *Campaign) []*cellState {
	t.Helper()
	e, err := expandCampaign(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e.order
}

// specsOf returns the cells' specs, in order: a shard of them.
func specsOf(cells []*cellState) []CellSpec {
	specs := make([]CellSpec, len(cells))
	for i, st := range cells {
		specs[i] = st.spec
	}
	return specs
}

// unitLog is an ExecBatch hook that runs each unit the way a worker
// does — ExecuteShard over a cache of its own — and records the units.
type unitLog struct {
	mu    sync.Mutex
	units [][]string
}

func (l *unitLog) hook(worker *CellCache) func([]CellSpec) ([]CellResult, error) {
	return func(specs []CellSpec) ([]CellResult, error) {
		hashes := make([]string, len(specs))
		for i, s := range specs {
			hashes[i] = s.Hash()
		}
		l.mu.Lock()
		l.units = append(l.units, hashes)
		l.mu.Unlock()
		out, err := ExecuteShard(worker, specs, 1)
		if err != nil {
			return nil, err
		}
		return out.Results, nil
	}
}

// checkUnits asserts the packing invariants: every todo cell is
// dispatched exactly once, no cohort is split across units, and no unit
// exceeds the shard limit. It returns the cohorts of todo.
func checkUnits(t *testing.T, units [][]string, todo []*cellState) []cohort {
	t.Helper()
	unitOf := map[string]int{}
	for u, hashes := range units {
		if len(hashes) > MaxShardCells {
			t.Errorf("unit %d carries %d cells, limit %d", u, len(hashes), MaxShardCells)
		}
		for _, h := range hashes {
			if prev, dup := unitOf[h]; dup {
				t.Fatalf("cell %s dispatched twice (units %d and %d)", h[:12], prev, u)
			}
			unitOf[h] = u
		}
	}
	if len(unitOf) != len(todo) {
		t.Fatalf("%d cells dispatched, want the %d left to run", len(unitOf), len(todo))
	}
	cohorts := groupCohorts(todo)
	for _, co := range cohorts {
		first := unitOf[co.cells[0].key.hash]
		for _, st := range co.cells {
			u, ok := unitOf[st.key.hash]
			if !ok {
				t.Fatalf("cell %s never dispatched", st.key.hash[:12])
			}
			if u != first {
				t.Fatalf("cohort of %d cells split across units %d and %d", len(co.cells), first, u)
			}
		}
	}
	return cohorts
}

// runPacked runs c cold at the given worker count twice — locally, and
// with ExecBatch dispatching to a worker cache — checks that artifacts
// and Report match, and returns the dispatched units.
func runPacked(t *testing.T, c *Campaign, workers int) [][]string {
	t.Helper()
	local, err := (&Runner{Cache: NewCellCacheStore(nil, 0), Workers: workers}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	var log unitLog
	packed, err := (&Runner{
		Cache:     NewCellCacheStore(nil, 0),
		Workers:   workers,
		ExecBatch: log.hook(NewCellCacheStore(nil, 0)),
	}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := artifactCSVs(t, packed), artifactCSVs(t, local); !reflect.DeepEqual(got, want) {
		t.Errorf("workers %d: packed artifacts differ from the local run", workers)
	}
	want, got := *local, *packed
	want.Artifacts, got.Artifacts = nil, nil
	// Cohorts are walked where cells execute: on the worker under ExecBatch.
	want.Cohorts, want.CohortCells = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workers %d: packed report %+v, local %+v", workers, got, want)
	}
	return log.units
}

// TestRunnerPacksCohortsIntoUnits pins the dispatch packing at 1, 2 and 8
// workers: every cell reaches ExecBatch once, cohorts stay whole, units
// respect the shard limit and number at most 4 · Workers + 1, and the
// output is byte-identical to a local run. Without ExecBatch the units
// are the trace cohorts, as before.
func TestRunnerPacksCohortsIntoUnits(t *testing.T) {
	c := packCampaign(t)
	todo := uniqueCells(t, c)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			units := runPacked(t, c, workers)
			cohorts := checkUnits(t, units, todo)
			multi := 0
			for _, co := range cohorts {
				if len(co.cells) > 1 {
					multi++
				}
			}
			if multi == 0 {
				t.Fatal("campaign has no multi-cell cohort; the split check is vacuous")
			}
			if max := unitsPerWorker*workers + 1; len(units) > max {
				t.Errorf("%d units for %d cells, want at most %d", len(units), len(todo), max)
			}
			if len(units) >= len(cohorts) {
				t.Errorf("%d units for %d cohorts: nothing was packed", len(units), len(cohorts))
			}

			local := &Runner{Workers: workers}
			if got := local.schedule(todo, workers); !reflect.DeepEqual(got, cohorts) {
				t.Error("without ExecBatch the units are not the trace cohorts")
			}
			local.DisableCohorts = true
			for i, u := range local.schedule(todo, workers) {
				if len(u.cells) != 1 || u.cells[0] != todo[i] {
					t.Fatalf("DisableCohorts unit %d has %d cells, want singleton %s", i, len(u.cells), todo[i].key.hash[:12])
				}
			}
		})
	}
}

// TestRunnerPackingRespectsShardLimit: an 18,000-cell model heatmap at one
// worker wants units of ⌈18000/4⌉ = 4500 cells, past the shard limit, so
// the limit sets the unit size instead.
func TestRunnerPackingRespectsShardLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("executes 36,000 model cells")
	}
	c, err := Load(strings.NewReader(`{"name": "big", "scenarios": [{"name": "hm",
	  "kind": "heatmap", "protocol": "abft",
	  "mtbf_minutes": {"from": 60, "to": 240, "count": 180},
	  "alphas": {"from": 0, "to": 1, "count": 100}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	todo := uniqueCells(t, c)
	if len(todo) != 18_000 {
		t.Fatalf("campaign has %d unique cells, want 18000", len(todo))
	}
	units := runPacked(t, c, 1)
	checkUnits(t, units, todo)
	if want := (len(todo) + MaxShardCells - 1) / MaxShardCells; len(units) != want {
		t.Errorf("%d units, want %d", len(units), want)
	}
}

// TestPackUnitsKeepsCohortsWhole: a cohort that would push a unit past the
// shard limit starts a new unit instead of splitting, and one larger than
// the limit goes out alone.
func TestPackUnitsKeepsCohortsWhole(t *testing.T) {
	mk := func(n int) cohort {
		co := cohort{}
		for i := 0; i < n; i++ {
			co.cells = append(co.cells, &cellState{})
		}
		return co
	}
	in := []cohort{mk(3), mk(MaxShardCells - 2), mk(MaxShardCells + 1), mk(2)}
	var sizes []int
	for _, u := range packUnits(in, 1) {
		sizes = append(sizes, len(u.cells))
	}
	// Target size ⌈(3+4094+4097+2)/4⌉ = 2049: "a" alone does not reach it
	// and "b" would overflow the limit with it, so each cohort is a unit.
	if want := []int{3, MaxShardCells - 2, MaxShardCells + 1, 2}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("unit sizes %v, want %v", sizes, want)
	}
}

// packedLoads schedules a cold run of the campaign under ExecBatch, as
// the coordinator does, and returns each unit's load with the campaign's
// cohorts and total load.
func packedLoads(t *testing.T, campaign string, workers int) (units []shardLoad, cohorts []cohort, total shardLoad) {
	t.Helper()
	c, err := Load(strings.NewReader(campaign))
	if err != nil {
		t.Fatal(err)
	}
	todo := uniqueCells(t, c)
	r := &Runner{ExecBatch: func([]CellSpec) ([]CellResult, error) { return nil, nil }}
	packed := r.schedule(todo, workers)
	checkUnits(t, hashesOf(packed), todo)
	for _, u := range packed {
		units = append(units, loadOf(u))
		total.add(loadOf(u))
	}
	return units, groupCohorts(todo), total
}

// loadOf sums the shard loads of a unit's or cohort's cells.
func loadOf(co cohort) shardLoad {
	var l shardLoad
	for _, st := range co.cells {
		l.add(cellLoad(st.spec))
	}
	return l
}

func hashesOf(units []cohort) [][]string {
	out := make([][]string, len(units))
	for i, u := range units {
		for _, st := range u.cells {
			out[i] = append(out[i], st.key.hash)
		}
	}
	return out
}

// TestPackUnitsRespectsLoadBudgets: a unit closes on its replica budgets,
// not only on its cell count. A 20×20 precision heatmap with a baseline
// keeps every replica's waste (about 20 JSON bytes each); at reps 10000
// and two workers, units of ⌈800/8⌉ = 100 cells would each return some
// 20 MB, past the 8 MiB response cap. Heavy cells likewise must not pile
// more than one MaxSimBudget cell's worth of work into a unit.
func TestPackUnitsRespectsLoadBudgets(t *testing.T) {
	const paired = `{"name": "paired", "reps": 10000, "scenarios": [{"name": "h",
	  "kind": "heatmap", "output": "sim", "protocol": "abft", "share_traces": true,
	  "precision": {"rel_ci": 0.01, "baseline": "pure"},
	  "mtbf_minutes": {"from": 60, "to": 240, "count": 20},
	  "alphas": {"from": 0, "to": 1, "count": 20}}]}`
	const heavy = `{"name": "heavy", "reps": 1000000, "scenarios": [{"name": "h",
	  "kind": "heatmap", "output": "sim", "protocol": "abft",
	  "mtbf_minutes": {"from": 60, "to": 240, "count": 10},
	  "alphas": {"from": 0, "to": 1, "count": 10}}]}`
	for _, tc := range []struct {
		name, campaign string
		budget         func(shardLoad) int64
		limit          int64
	}{
		{"kept replicas", paired, func(l shardLoad) int64 { return l.kept }, shardKeptBudget},
		{"simulation work", heavy, func(l shardLoad) int64 { return l.work }, shardWorkBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const workers = 2
			units, cohorts, total := packedLoads(t, tc.campaign, workers)
			countOnly := int64(total.cells / (unitsPerWorker * workers))
			if per := tc.budget(total) / int64(total.cells); per*countOnly <= tc.limit {
				t.Fatalf("count-only units of %d cells carry %d, within the %d budget; the case is vacuous",
					countOnly, per*countOnly, tc.limit)
			}
			for _, co := range cohorts {
				if l := loadOf(co); tc.budget(l) > tc.limit {
					t.Fatalf("one cohort carries %d, past the %d budget on its own", tc.budget(l), tc.limit)
				}
			}
			for i, u := range units {
				if tc.budget(u) > tc.limit {
					t.Errorf("unit %d carries %d (%d cells), budget %d", i, tc.budget(u), u.cells, tc.limit)
				}
			}
		})
	}
}

// TestPackUnitsSpreadsSimulationWork: cells are weighed by their share of
// the simulation work as well as by count, so a campaign of many cheap
// analytic cells and a few heavy simulation cells does not hand all the
// simulation to one unit (one worker): no unit carries more than
// 1/(2 · Workers) of the work plus its last cohort.
func TestPackUnitsSpreadsSimulationWork(t *testing.T) {
	const mixed = `{"name": "mixed", "reps": 1000, "scenarios": [
	  {"name": "model", "kind": "heatmap", "protocol": "abft",
	   "mtbf_minutes": {"from": 60, "to": 240, "count": 20},
	   "alphas": {"from": 0, "to": 1, "count": 20}},
	  {"name": "sim", "kind": "heatmap", "output": "sim", "protocol": "abft",
	   "mtbf_minutes": {"from": 60, "to": 240, "count": 8},
	   "alphas": {"from": 0, "to": 1, "count": 5}}]}`
	for _, workers := range []int{1, 2, 8} {
		units, cohorts, total := packedLoads(t, mixed, workers)
		var heaviest int64
		for _, co := range cohorts {
			heaviest = max(heaviest, loadOf(co).work)
		}
		limit := total.work/int64(2*workers) + heaviest
		withWork := 0
		for i, u := range units {
			if u.work > limit {
				t.Errorf("workers %d: unit %d carries work %d of %d, want at most %d", workers, i, u.work, total.work, limit)
			}
			if u.work > 0 {
				withWork++
			}
		}
		if max := unitsPerWorker*workers + 1; len(units) > max {
			t.Errorf("workers %d: %d units, want at most %d", workers, len(units), max)
		}
		if withWork <= workers {
			t.Errorf("workers %d: simulation work spread over %d units, want more than %d", workers, withWork, workers)
		}
	}
}

// countingStore counts the calls that reach a store and the corrupt keys
// its batch reads name, and can fail its batched writes.
type countingStore struct {
	store.ResultStore
	gets, puts, getBatches, putBatches atomic.Int64
	corrupt                            atomic.Int64 // keys named by a *store.CorruptError
	failPuts                           atomic.Bool
}

func (s *countingStore) Get(key string) ([]byte, error) {
	s.gets.Add(1)
	return s.ResultStore.Get(key)
}

func (s *countingStore) Put(key string, value []byte) error {
	s.puts.Add(1)
	return s.ResultStore.Put(key, value)
}

func (s *countingStore) GetBatch(keys []string) (map[string][]byte, error) {
	s.getBatches.Add(1)
	got, err := s.ResultStore.GetBatch(keys)
	var ce *store.CorruptError
	if errors.As(err, &ce) {
		s.corrupt.Add(int64(len(ce.Keys)))
	}
	return got, err
}

func (s *countingStore) PutBatch(items []store.Item) error {
	s.putBatches.Add(1)
	if s.failPuts.Load() {
		return errors.New("store full")
	}
	return s.ResultStore.PutBatch(items)
}

// traffic snapshots the counters and resets them.
func (s *countingStore) traffic() [4]int64 {
	return [4]int64{s.gets.Swap(0), s.puts.Swap(0), s.getBatches.Swap(0), s.putBatches.Swap(0)}
}

// TestExecuteShardStoreTraffic pins a shard's store traffic: a cold shard
// reads with one GetBatch and writes with one PutBatch, an all-hit shard
// writes nothing, a memory-hot one reads nothing, and no per-key Get or
// Put is left.
func TestExecuteShardStoreTraffic(t *testing.T) {
	shard := specsOf(uniqueCells(t, packCampaign(t)))
	mem := store.NewMemory()
	cnt := &countingStore{ResultStore: mem}
	rs := store.WithChecksum(cnt)

	// {Get, Put, GetBatch, PutBatch}
	cold, err := ExecuteShard(NewCellCacheStore(rs, 0), shard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := cnt.traffic(); got != [4]int64{0, 0, 1, 1} {
		t.Errorf("cold shard traffic %v, want one GetBatch and one PutBatch", got)
	}
	if cold.Executed != len(shard) || mem.Len() != len(shard) {
		t.Fatalf("cold shard executed %d and stored %d of %d cells", cold.Executed, mem.Len(), len(shard))
	}

	warm := NewCellCacheStore(rs, 0)
	hits, err := ExecuteShard(warm, shard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := cnt.traffic(); got != [4]int64{0, 0, 1, 0} {
		t.Errorf("all-hit shard traffic %v, want one GetBatch and no write", got)
	}
	if hits.Cached != len(shard) {
		t.Fatalf("all-hit shard cached %d of %d", hits.Cached, len(shard))
	}
	for i := range shard {
		if hits.Tiers[i] != TierDisk || mustCanonicalResult(t, hits.Results[i]) != mustCanonicalResult(t, cold.Results[i]) {
			t.Fatalf("cell %d: tier %s, or stored result differs from the executed one", i, hits.Tiers[i])
		}
	}

	if _, err := ExecuteShard(warm, shard, 1); err != nil {
		t.Fatal(err)
	}
	if got := cnt.traffic(); got != [4]int64{} {
		t.Errorf("memory-hot shard traffic %v, want none", got)
	}
}

// flipEntry flips one byte of a stored entry, as media corruption would.
func flipEntry(t *testing.T, mem *store.Memory, hash string) {
	t.Helper()
	raw, err := mem.Get(hash)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04
	if err := mem.Put(hash, raw); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteShardCountsCorruptOnce: a flipped entry read by a runner's
// preload and again by the shard's GetBatch counts once in
// corrupt_entries; the shard re-executes and rewrites it.
func TestExecuteShardCountsCorruptOnce(t *testing.T) {
	c := packCampaign(t)
	mem := filledStore(t, c)
	clean := runWarm(t, c, store.WithChecksum(mem), 2)
	todo := uniqueCells(t, c)
	victim := todo[len(todo)/2].key
	flipEntry(t, mem, victim.hash)

	rs := &countingStore{ResultStore: store.WithChecksum(mem)}
	cache := NewCellCacheStore(rs, 0)
	r := Runner{Cache: cache, Workers: 2, ExecBatch: func(specs []CellSpec) ([]CellResult, error) {
		out, err := ExecuteShard(cache, specs, 1)
		if err != nil {
			return nil, err
		}
		return out.Results, nil
	}}
	rep, err := r.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.corrupt.Load(); got != 2 {
		t.Errorf("reads named %d corrupt entries, want 2 (preload and shard)", got)
	}
	st := cache.Stats()
	if st.CorruptEntries != 1 || st.Executed != 1 || st.StoreErrors != 0 {
		t.Errorf("corrupt %d, executed %d, store errors %d; want 1, 1, 0", st.CorruptEntries, st.Executed, st.StoreErrors)
	}
	if !reflect.DeepEqual(artifactCSVs(t, rep), clean.csv) {
		t.Error("artifacts after the corrupt entry differ from the clean run")
	}
	if cache.damaged[victim.hash] {
		t.Error("rewritten entry still marked damaged")
	}
	if _, tier, ok := NewCellCacheStore(store.WithChecksum(mem), 0).lookup(victim); !ok || tier != TierDisk {
		t.Errorf("victim not rewritten: ok %v tier %s", ok, tier)
	}
}

// TestExecuteShardFailedWriteKeepsDamage: when the shard's PutBatch
// fails, every executed cell counts one store error, the results are
// still served, and the damaged marks stay until a write succeeds.
func TestExecuteShardFailedWriteKeepsDamage(t *testing.T) {
	c := packCampaign(t)
	mem := filledStore(t, c)
	todo := uniqueCells(t, c)
	victims := []string{todo[1].key.hash, todo[len(todo)-1].key.hash}
	for _, h := range victims {
		flipEntry(t, mem, h)
	}
	cnt := &countingStore{ResultStore: mem}
	cnt.failPuts.Store(true)
	cache := NewCellCacheStore(store.WithChecksum(cnt), 0)
	out, err := ExecuteShard(cache, specsOf(todo), 1)
	if err != nil {
		t.Fatalf("a failed store write must not fail the shard: %v", err)
	}
	if out.Executed != len(victims) {
		t.Fatalf("executed %d, want the %d damaged cells", out.Executed, len(victims))
	}
	if got := cnt.traffic(); got != [4]int64{0, 0, 1, 1} {
		t.Errorf("traffic %v, want one GetBatch and one (failed) PutBatch", got)
	}
	st := cache.Stats()
	if st.StoreErrors != int64(len(victims)) || st.CorruptEntries != int64(len(victims)) {
		t.Errorf("store errors %d, corrupt %d; want %d each", st.StoreErrors, st.CorruptEntries, len(victims))
	}
	for _, h := range victims {
		if !cache.damaged[h] {
			t.Errorf("cell %s lost its damaged mark after a failed write", h[:12])
		}
	}
}

// TestExecuteShardCountsCorruptThroughWrapper: a damaged entry read by a
// shard through a pass-through wrapper above the checksum layer counts
// once, because the checksum layer's batch read names it in its error.
func TestExecuteShardCountsCorruptThroughWrapper(t *testing.T) {
	c := packCampaign(t)
	mem := filledStore(t, c)
	todo := uniqueCells(t, c)
	flipEntry(t, mem, todo[len(todo)/2].key.hash)

	cache := NewCellCacheStore(&countingStore{ResultStore: store.WithChecksum(mem)}, 0)
	shard := specsOf(todo)
	out, err := ExecuteShard(cache, shard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 1 || out.Cached != len(shard)-1 {
		t.Errorf("executed %d, cached %d; want 1, %d", out.Executed, out.Cached, len(shard)-1)
	}
	if st := cache.Stats(); st.CorruptEntries != 1 || st.DiskHits != int64(len(shard)-1) {
		t.Errorf("corrupt %d, disk hits %d; want 1, %d", st.CorruptEntries, st.DiskHits, len(shard)-1)
	}
}
