package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abftckpt/internal/model"
)

// periodsCell returns a cheap, valid cell whose identity is parameterized
// by mu, so tests can mint arbitrarily many distinct cells.
func periodsCell(mu float64) CellSpec {
	return CellSpec{Op: OpPeriods, Probe: &PeriodsProbe{C: 60, Mu: mu, D: 60, R: 60}}
}

// modelResult mints a recognizable result value for a fake executor.
func modelResult(v float64) CellResult {
	return CellResult{Model: &ModelCellResult{Feasible: true, TFinal: JSONFloat(v)}}
}

// TestCellCacheWarmPath is the warm-path acceptance check: a repeated
// request for an identical cell is served from the in-memory LRU without a
// disk read or a cell execution, counters telling the story.
func TestCellCacheWarmPath(t *testing.T) {
	dir := t.TempDir()
	c := NewCellCache(dir, 16)
	spec := periodsCell(model.Hour)

	res1, tier, err := c.GetOrExecute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierExec {
		t.Fatalf("cold request tier = %q, want %q", tier, TierExec)
	}
	after1 := c.Stats()
	if after1.Executed != 1 || after1.DiskReads != 1 || after1.MemHits != 0 {
		t.Fatalf("cold stats = %+v, want 1 execution and 1 disk read", after1)
	}

	res2, tier, err := c.GetOrExecute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierMem {
		t.Fatalf("warm request tier = %q, want %q", tier, TierMem)
	}
	after2 := c.Stats()
	if after2.Executed != after1.Executed {
		t.Errorf("warm request executed the cell again: %+v", after2)
	}
	if after2.DiskReads != after1.DiskReads {
		t.Errorf("warm request touched disk: %+v", after2)
	}
	if after2.MemHits != 1 {
		t.Errorf("warm request MemHits = %d, want 1", after2.MemHits)
	}
	if mustCanonicalResult(t, res1) != mustCanonicalResult(t, res2) {
		t.Error("warm result differs from cold result")
	}

	// A fresh cache over the same directory misses memory, hits disk once,
	// and promotes — the second request is a memory hit again.
	c2 := NewCellCache(dir, 16)
	if _, tier, err = c2.GetOrExecute(spec); err != nil || tier != TierDisk {
		t.Fatalf("fresh cache tier = %q err = %v, want %q", tier, err, TierDisk)
	}
	if _, tier, err = c2.GetOrExecute(spec); err != nil || tier != TierMem {
		t.Fatalf("promoted tier = %q err = %v, want %q", tier, err, TierMem)
	}
	s := c2.Stats()
	if s.Executed != 0 || s.DiskHits != 1 || s.DiskReads != 1 || s.MemHits != 1 {
		t.Errorf("fresh-cache stats = %+v, want 0 executions, 1 disk hit/read, 1 mem hit", s)
	}
}

// TestCellCacheMemHitAllocatesOnlyTheKey: a memory hit through
// GetOrExecute, the warm path of POST /v1/cells, allocates nothing beyond
// deriving the cell's key. The one-key read goes through lookupBatch,
// whose store-side bookkeeping a memory hit must not pay for.
func TestCellCacheMemHitAllocatesOnlyTheKey(t *testing.T) {
	spec := periodsCell(model.Hour)
	c := NewCellCache("", 0)
	if _, _, err := c.GetOrExecute(spec); err != nil {
		t.Fatal(err)
	}
	key := testing.AllocsPerRun(100, func() { spec.key() })
	hit := testing.AllocsPerRun(100, func() {
		if _, tier, _ := c.GetOrExecute(spec); tier != TierMem {
			t.Fatalf("tier %s, want mem", tier)
		}
	})
	if hit > key {
		t.Errorf("memory hit allocates %v times, deriving the key %v", hit, key)
	}
}

// TestCellCacheSingleflight pins down request coalescing: N concurrent
// identical requests execute the cell exactly once, the leader reporting
// TierExec and every waiter TierCoalesced with the leader's result.
func TestCellCacheSingleflight(t *testing.T) {
	c := NewCellCache("", 16)
	spec := periodsCell(model.Hour)
	const waiters = 7

	started := make(chan struct{})
	release := make(chan struct{})
	var execs atomic.Int32
	exec := func() (CellResult, error) {
		execs.Add(1)
		close(started)
		<-release
		return modelResult(42), nil
	}

	var wg sync.WaitGroup
	tiers := make(chan CellTier, waiters+1)
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, tier, err := c.do(spec.key(), exec)
			if err != nil {
				t.Error(err)
			}
			if got := float64(res.Model.TFinal); got != 42 {
				t.Errorf("result = %v, want 42", got)
			}
			tiers <- tier
		}()
	}
	launch() // leader: blocks inside exec
	<-started
	for i := 0; i < waiters; i++ {
		launch()
	}
	// Every waiter increments Coalesced before blocking; wait until all
	// are provably parked on the in-flight call, then release the leader.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Coalesced < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters coalesced", c.Stats().Coalesced, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(tiers)

	if n := execs.Load(); n != 1 {
		t.Fatalf("cell executed %d times, want exactly 1", n)
	}
	count := map[CellTier]int{}
	for tier := range tiers {
		count[tier]++
	}
	if count[TierExec] != 1 || count[TierCoalesced] != waiters {
		t.Errorf("tiers = %v, want 1 exec and %d coalesced", count, waiters)
	}
}

// TestCellCacheLRUEviction checks the memory tier is size-bounded and
// evicts least-recently-used cells first.
func TestCellCacheLRUEviction(t *testing.T) {
	c := NewCellCache("", 2)
	mkexec := func(v float64) func() (CellResult, error) {
		return func() (CellResult, error) { return modelResult(v), nil }
	}
	a, b, d := periodsCell(1*model.Hour), periodsCell(2*model.Hour), periodsCell(3*model.Hour)
	for i, s := range []struct {
		spec CellSpec
		v    float64
	}{{a, 1}, {b, 2}} {
		if _, tier, _ := c.do(s.spec.key(), mkexec(s.v)); tier != TierExec {
			t.Fatalf("fill %d: tier %q", i, tier)
		}
	}
	// Touch a so b becomes the LRU victim, then insert d.
	if _, tier, _ := c.do(a.key(), mkexec(1)); tier != TierMem {
		t.Fatal("a should be in memory")
	}
	if _, tier, _ := c.do(d.key(), mkexec(3)); tier != TierExec {
		t.Fatal("d should execute")
	}
	if _, _, ok := c.lookup(a.key()); !ok {
		t.Error("a (recently used) was evicted")
	}
	if _, _, ok := c.lookup(b.key()); ok {
		t.Error("b (least recently used) survived past capacity")
	}
	// With no disk tier, evicted cells re-execute; the value must come
	// from the executor, never a stale slot.
	if res, tier, _ := c.do(b.key(), mkexec(22)); tier != TierExec || float64(res.Model.TFinal) != 22 {
		t.Errorf("re-executed b: tier %q value %v", tier, res.Model.TFinal)
	}
}

// TestCellCacheStoreErrorDegradesGracefully is the regression test for
// the store/exec conflation bug: when the disk tier cannot be written (a
// full or read-only cache directory), a *successful* execution must still
// return its result, insert it into the memory tier, and serve coalesced
// waiters — the failure is only counted in StoreErrors.
func TestCellCacheStoreErrorDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	spec := periodsCell(model.Hour)
	// Block the shard directory with a regular file: the disk store's MkdirAll
	// fails with ENOTDIR regardless of privileges (chmod tricks are
	// bypassed when tests run as root).
	if err := os.WriteFile(filepath.Join(dir, spec.Hash()[:2]), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCellCache(dir, 16)

	res, tier, err := c.do(spec.key(), func() (CellResult, error) { return modelResult(42), nil })
	if err != nil {
		t.Fatalf("store failure surfaced as an execution error: %v", err)
	}
	if tier != TierExec || float64(res.Model.TFinal) != 42 {
		t.Fatalf("tier %q result %v, want exec/42", tier, res.Model)
	}
	s := c.Stats()
	if s.StoreErrors != 1 || s.Executed != 1 || s.ExecErrors != 0 {
		t.Errorf("stats = %+v, want 1 executed, 1 store error, 0 exec errors", s)
	}
	// The result went into the memory tier: a repeat is a mem hit, not a
	// re-execution against the broken disk.
	res2, tier, err := c.GetOrExecute(spec)
	if err != nil || tier != TierMem {
		t.Fatalf("repeat after store failure: tier %q err %v, want mem", tier, err)
	}
	if mustCanonicalResult(t, res) != mustCanonicalResult(t, res2) {
		t.Error("memory tier served a different result")
	}
	if s := c.Stats(); s.StoreErrors != 1 || s.Executed != 1 {
		t.Errorf("repeat mutated counters: %+v", s)
	}
}

// TestCellCacheStoreErrorServesWaiters checks coalesced waiters on a cell
// whose store fails still receive the successful result.
func TestCellCacheStoreErrorServesWaiters(t *testing.T) {
	dir := t.TempDir()
	spec := periodsCell(model.Hour)
	if err := os.WriteFile(filepath.Join(dir, spec.Hash()[:2]), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCellCache(dir, 16)

	started := make(chan struct{})
	release := make(chan struct{})
	exec := func() (CellResult, error) {
		close(started)
		<-release
		return modelResult(7), nil
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.do(spec.key(), exec)
		leaderErr <- err
	}()
	<-started
	waiterDone := make(chan error, 1)
	var waiterRes CellResult
	go func() {
		res, tier, err := c.do(spec.key(), nil)
		if err == nil && tier != TierCoalesced && tier != TierMem {
			err = fmt.Errorf("waiter tier = %q", tier)
		}
		waiterRes = res
		waiterDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter poisoned by the store failure: %v", err)
	}
	if float64(waiterRes.Model.TFinal) != 7 {
		t.Errorf("waiter result = %v, want 7", waiterRes.Model)
	}
}

// TestCellCacheExecError checks failed executions are not cached and do
// not poison waiters beyond the failing call.
func TestCellCacheExecError(t *testing.T) {
	c := NewCellCache("", 4)
	spec := periodsCell(model.Hour)
	boom := fmt.Errorf("boom")
	if _, _, err := c.do(spec.key(), func() (CellResult, error) { return CellResult{}, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if s := c.Stats(); s.Executed != 0 || s.ExecErrors != 1 {
		t.Errorf("failed execution miscounted: %+v, want 0 executed / 1 exec error", s)
	}
	// The failure is not cached: the next call re-executes and succeeds.
	res, tier, err := c.do(spec.key(), func() (CellResult, error) { return modelResult(7), nil })
	if err != nil || tier != TierExec || float64(res.Model.TFinal) != 7 {
		t.Errorf("retry after failure: res=%v tier=%q err=%v", res.Model, tier, err)
	}
}

// TestCellCacheExecPanic checks a panicking executor does not leak the
// in-flight entry: waiters are unblocked with an error, the panic
// propagates to the leader, and the cell remains usable afterwards.
func TestCellCacheExecPanic(t *testing.T) {
	c := NewCellCache("", 4)
	spec := periodsCell(model.Hour)

	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.do(spec.key(), func() (CellResult, error) {
			close(entered)
			<-release
			panic("exec exploded")
		})
	}()
	<-entered
	// A waiter coalesces onto the doomed flight.
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.do(spec.key(), func() (CellResult, error) { return modelResult(1), nil })
		waiterDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if p := <-leaderDone; p == nil {
		t.Fatal("panic did not propagate to the leader")
	}
	select {
	case err := <-waiterDone:
		if err == nil {
			t.Error("waiter got a result from a panicked execution")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter deadlocked on the leaked flight entry")
	}
	// The failure is not sticky: the next request executes normally.
	res, tier, err := c.do(spec.key(), func() (CellResult, error) { return modelResult(5), nil })
	if err != nil || tier != TierExec || float64(res.Model.TFinal) != 5 {
		t.Errorf("cell unusable after panic: res=%v tier=%q err=%v", res.Model, tier, err)
	}
}

// TestCellCacheJointWalkSingleflight checks execJoint's claim: of a
// cohort's cells, one already in memory is served from it, one in flight
// for another caller is coalesced onto that flight, and only the rest are
// walked, once, each settled with its share of the walk's time.
func TestCellCacheJointWalkSingleflight(t *testing.T) {
	c := NewCellCache("", 16)
	var cells []*cellState
	for i := 0; i < 4; i++ {
		spec := periodsCell(float64(i+1) * model.Hour)
		cells = append(cells, &cellState{spec: spec, key: spec.key()})
	}
	if _, _, err := c.do(cells[0].key, func() (CellResult, error) { return modelResult(10), nil }); err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.do(cells[1].key, func() (CellResult, error) {
			close(started)
			<-release
			return modelResult(11), nil
		})
		leader <- err
	}()
	<-started

	var walked []*cellState
	var tiers []CellTier
	joint := make(chan []*cellState, 1)
	go func() {
		joint <- c.execJoint(cells, func(claimed []*cellState) []error {
			walked = claimed
			for _, st := range claimed {
				st.result = modelResult(20 + float64(len(walked)))
				time.Sleep(time.Millisecond)
			}
			return nil
		}, func(st *cellState, err error) bool {
			if err != nil {
				t.Error(err)
			}
			tiers = append(tiers, st.tier)
			return true
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the in-flight cell never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	<-joint

	if len(walked) != 2 || walked[0] != cells[2] || walked[1] != cells[3] {
		t.Fatalf("walked %d cells, want exactly the two unclaimed ones", len(walked))
	}
	want := []CellTier{TierMem, TierCoalesced, TierExec, TierExec}
	if fmt.Sprint(tiers) != fmt.Sprint(want) {
		t.Errorf("tiers %v, want %v", tiers, want)
	}
	if got := float64(cells[1].result.Model.TFinal); got != 11 {
		t.Errorf("coalesced cell result %v, want the leader's 11", got)
	}
	if cells[2].elapsedMS <= 0 || cells[2].elapsedMS != cells[3].elapsedMS {
		t.Errorf("walked cells' elapsed %v and %v, want equal positive shares", cells[2].elapsedMS, cells[3].elapsedMS)
	}
	if st := c.Stats(); st.Executed != 4 || st.Coalesced != 1 || st.MemHits != 1 {
		t.Errorf("stats %+v, want 4 executed, 1 coalesced, 1 memory hit", st)
	}
}

// TestCellCacheJointWalkPanic checks that a panic in a joint walk
// releases every claimed flight: a waiter coalesced onto one gets an
// error, the panic reaches the walk's caller, no cell is settled, and the
// cells execute normally afterwards.
func TestCellCacheJointWalkPanic(t *testing.T) {
	c := NewCellCache("", 4)
	var cells []*cellState
	for i := 0; i < 2; i++ {
		spec := periodsCell(float64(i+1) * model.Hour)
		cells = append(cells, &cellState{spec: spec, key: spec.key()})
	}
	entered, release := make(chan struct{}), make(chan struct{})
	walkDone := make(chan any, 1)
	go func() {
		defer func() { walkDone <- recover() }()
		c.execJoint(cells, func([]*cellState) []error {
			close(entered)
			<-release
			panic("walk exploded")
		}, func(*cellState, error) bool { return true })
	}()
	<-entered
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.do(cells[1].key, func() (CellResult, error) { return modelResult(1), nil })
		waiterDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if p := <-walkDone; p == nil {
		t.Fatal("panic did not propagate to the walk's caller")
	}
	select {
	case err := <-waiterDone:
		if err == nil {
			t.Error("waiter got a result from a panicked walk")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter deadlocked on a leaked flight entry")
	}
	for i, st := range cells {
		if st.tier != "" {
			t.Errorf("cell %d settled from tier %q after the panic", i, st.tier)
		}
		if _, tier, err := c.do(st.key, func() (CellResult, error) { return modelResult(5), nil }); err != nil || tier != TierExec {
			t.Errorf("cell %d unusable after the panic: tier %q, err %v", i, tier, err)
		}
	}
}

// TestRunnerSharedCacheCoalesces checks two concurrent campaign runs
// sharing one CellCache execute their common cells once in total.
func TestRunnerSharedCacheCoalesces(t *testing.T) {
	cache := NewCellCache("", 0)
	c1, c2 := testCampaign(), testCampaign()
	var wg sync.WaitGroup
	reports := make([]*Report, 2)
	for i, c := range []*Campaign{c1, c2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &Runner{Cache: cache, Workers: 2}
			rep, err := r.Run(c)
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = rep
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	unique := reports[0].Unique
	if int(cache.Stats().Executed) != unique {
		t.Errorf("two concurrent identical campaigns executed %d cells in total, want %d (one campaign's worth)",
			cache.Stats().Executed, unique)
	}
	// Between the two runs every unique cell is accounted exactly twice.
	got := reports[0].Executed + reports[0].CacheHits + reports[1].Executed + reports[1].CacheHits
	if got != 2*unique {
		t.Errorf("accounted cells = %d, want %d", got, 2*unique)
	}
}
