package vproc

import (
	"errors"
	"testing"

	"abftckpt/internal/store"
)

func newTestRuntime(n int, inj *Injector) *Runtime {
	return NewRuntime(n, store.NewMemory(), inj)
}

func TestParallelRunsAllProcs(t *testing.T) {
	rt := newTestRuntime(4, nil)
	err := rt.Parallel(func(p *Proc) error {
		p.Data["x"] = []float64{float64(p.Rank)}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rt.Gather("x")
	want := []float64{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gather = %v", got)
		}
	}
}

func TestParallelFailsOnDeadProc(t *testing.T) {
	rt := newTestRuntime(3, nil)
	rt.Kill(1)
	err := rt.Parallel(func(p *Proc) error { return nil })
	if !errors.Is(err, ErrDeadProcess) {
		t.Fatalf("err = %v, want ErrDeadProcess", err)
	}
	rt.Respawn(1)
	if err := rt.Parallel(func(p *Proc) error { return nil }); err != nil {
		t.Fatalf("after respawn: %v", err)
	}
}

func TestKillDestroysState(t *testing.T) {
	rt := newTestRuntime(2, nil)
	rt.Procs[0].Data["d"] = []float64{1, 2, 3}
	rt.Kill(0)
	if rt.Procs[0].Alive() {
		t.Fatal("killed proc still alive")
	}
	if len(rt.Procs[0].Data) != 0 {
		t.Fatal("killed proc kept its data")
	}
	if rt.Stats.Failures != 1 {
		t.Fatalf("failures = %d", rt.Stats.Failures)
	}
}

func TestCheckpointRestore(t *testing.T) {
	rt := newTestRuntime(2, nil)
	for _, p := range rt.Procs {
		p.Data["a"] = []float64{float64(p.Rank) + 0.5}
		p.Data["b"] = []float64{10 * float64(p.Rank)}
	}
	if err := rt.Checkpoint("full", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	// Mutate then restore only "a".
	rt.Procs[1].Data["a"][0] = -1
	rt.Procs[1].Data["b"][0] = -1
	if err := rt.Restore("full", 1, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if rt.Procs[1].Data["a"][0] != 1.5 {
		t.Fatalf("a not restored: %v", rt.Procs[1].Data["a"])
	}
	if rt.Procs[1].Data["b"][0] != -1 {
		t.Fatal("b restored although not requested")
	}
	// RestoreAll recovers everything.
	if err := rt.RestoreAll("full", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if rt.Procs[1].Data["b"][0] != 10 {
		t.Fatalf("b not restored: %v", rt.Procs[1].Data["b"])
	}
}

func TestCheckpointFailsWithDeadProc(t *testing.T) {
	rt := newTestRuntime(2, nil)
	rt.Kill(0)
	if err := rt.Checkpoint("x", []string{"a"}); !errors.Is(err, ErrDeadProcess) {
		t.Fatalf("err = %v, want ErrDeadProcess", err)
	}
}

func TestInjectorForced(t *testing.T) {
	inj := &Injector{Forced: map[int]int{2: 1}}
	if inj.next(4) != -1 || inj.next(4) != -1 {
		t.Fatal("unexpected early failure")
	}
	if got := inj.next(4); got != 1 {
		t.Fatalf("forced failure = %d, want 1", got)
	}
	if inj.next(4) != -1 {
		t.Fatal("failure after forced window")
	}
}

func TestInjectorNilNeverFails(t *testing.T) {
	var inj *Injector
	for i := 0; i < 100; i++ {
		if inj.next(4) != -1 {
			t.Fatal("nil injector failed")
		}
	}
}

func TestInjectorRandomRate(t *testing.T) {
	inj := NewInjector(0.3, 42)
	fails := 0
	for i := 0; i < 10000; i++ {
		if inj.next(8) >= 0 {
			fails++
		}
	}
	if fails < 2700 || fails > 3300 {
		t.Fatalf("failure count = %d, want ~3000", fails)
	}
}

// A composite general phase with a forced failure rolls back to the last
// periodic checkpoint and replays; the result equals the failure-free run.
func TestCompositeGeneralRollbackReplay(t *testing.T) {
	run := func(inj *Injector) ([]float64, RunStats) {
		rt := newTestRuntime(2, inj)
		for _, p := range rt.Procs {
			p.Data["r"] = []float64{float64(p.Rank + 1)}
			p.Data["l"] = []float64{0}
		}
		c := &Composite{RT: rt, CkptEvery: 2, RemainderDatasets: []string{"r"}, LibraryDatasets: []string{"l"}}
		if err := c.Init(); err != nil {
			t.Fatal(err)
		}
		step := func(p *Proc, s int) error {
			p.Data["r"][0] = p.Data["r"][0]*1.1 + float64(s)
			return nil
		}
		if err := c.RunGeneral(6, step); err != nil {
			t.Fatal(err)
		}
		return rt.Gather("r"), rt.Stats
	}

	clean, cleanStats := run(nil)
	// Fail at superstep counter 3 (after ckpt at step 2).
	failed, failedStats := run(&Injector{Forced: map[int]int{3: 0}})
	for i := range clean {
		if clean[i] != failed[i] {
			t.Fatalf("state diverged after rollback: %v vs %v", clean, failed)
		}
	}
	if cleanStats.Rollbacks != 0 || failedStats.Rollbacks != 1 {
		t.Fatalf("rollbacks: clean %d, failed %d", cleanStats.Rollbacks, failedStats.Rollbacks)
	}
	if failedStats.GeneralFails != 1 || failedStats.ReplayedSteps == 0 {
		t.Fatalf("stats: %+v", failedStats)
	}
}

// Without a periodic checkpoint the rollback target is the split base.
func TestCompositeRollbackToSplitBase(t *testing.T) {
	rt := newTestRuntime(2, &Injector{Forced: map[int]int{1: 1}})
	for _, p := range rt.Procs {
		p.Data["r"] = []float64{5}
		p.Data["l"] = []float64{7}
	}
	c := &Composite{RT: rt, CkptEvery: 0, RemainderDatasets: []string{"r"}, LibraryDatasets: []string{"l"}}
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	step := func(p *Proc, s int) error {
		p.Data["r"][0]++
		return nil
	}
	if err := c.RunGeneral(3, step); err != nil {
		t.Fatal(err)
	}
	// 3 steps completed despite the failure: +3 from the base value 5.
	for _, p := range rt.Procs {
		if p.Data["r"][0] != 8 {
			t.Fatalf("rank %d: r = %v, want 8", p.Rank, p.Data["r"][0])
		}
		if p.Data["l"][0] != 7 {
			t.Fatalf("rank %d: library data corrupted: %v", p.Rank, p.Data["l"][0])
		}
	}
}

// trivialLib counts steps and recovers by recomputing from survivors.
type trivialLib struct {
	steps     int
	recovered *int
}

func (l trivialLib) Steps() int { return l.steps }
func (l trivialLib) Step(rt *Runtime, s int) error {
	return rt.Parallel(func(p *Proc) error {
		p.Data["l"][0] += 1
		return nil
	})
}
func (l trivialLib) Recover(rt *Runtime, failed int) error {
	*l.recovered++
	// Rebuild from a surviving peer (all ranks hold identical values here).
	var donor *Proc
	for _, p := range rt.Procs {
		if p.Rank != failed && p.Alive() {
			donor = p
			break
		}
	}
	rt.Procs[failed].Data["l"] = append([]float64(nil), donor.Data["l"]...)
	return nil
}

// A failure inside the library phase must trigger ABFT recovery, not a
// rollback, and completed library supersteps are never redone.
func TestCompositeLibraryForwardRecovery(t *testing.T) {
	rt := newTestRuntime(3, &Injector{Forced: map[int]int{2: 1}})
	for _, p := range rt.Procs {
		p.Data["r"] = []float64{float64(p.Rank)}
		p.Data["l"] = []float64{0}
	}
	c := &Composite{RT: rt, RemainderDatasets: []string{"r"}, LibraryDatasets: []string{"l"}}
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	if err := c.RT.Checkpoint(SlotEntry, c.RemainderDatasets); err != nil {
		t.Fatal(err)
	}
	recovered := 0
	lib := trivialLib{steps: 4, recovered: &recovered}
	if err := c.RunLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if recovered != 1 || rt.Stats.AbftRecoveries != 1 || rt.Stats.Rollbacks != 0 {
		t.Fatalf("stats: recovered=%d %+v", recovered, rt.Stats)
	}
	// All 4 steps applied exactly once on every rank.
	for _, p := range rt.Procs {
		if p.Data["l"][0] != 4 {
			t.Fatalf("rank %d: l = %v, want 4", p.Rank, p.Data["l"][0])
		}
	}
	// The victim's remainder was reloaded from the entry checkpoint.
	if rt.Procs[1].Data["r"][0] != 1 {
		t.Fatalf("victim remainder = %v, want 1", rt.Procs[1].Data["r"][0])
	}
}

// RunEpoch chains the phases and leaves a complete split checkpoint behind.
func TestCompositeRunEpoch(t *testing.T) {
	rt := newTestRuntime(2, nil)
	for _, p := range rt.Procs {
		p.Data["r"] = []float64{1}
		p.Data["l"] = []float64{0}
	}
	c := &Composite{RT: rt, CkptEvery: 2, RemainderDatasets: []string{"r"}, LibraryDatasets: []string{"l"}}
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	recovered := 0
	step := func(p *Proc, s int) error { p.Data["r"][0]++; return nil }
	if err := c.RunEpoch(3, step, trivialLib{steps: 2, recovered: &recovered}); err != nil {
		t.Fatal(err)
	}
	if rt.Stats.PartialCkpts != 2+2 { // Init + epoch entry/exit
		t.Fatalf("partial ckpts = %d, want 4", rt.Stats.PartialCkpts)
	}
	// The split base now captures the post-epoch state: restoring from it
	// reproduces the current values.
	wantR := rt.Gather("r")
	wantL := rt.Gather("l")
	rt.Procs[0].Data["r"][0] = -99
	rt.Procs[0].Data["l"][0] = -99
	if err := rt.RestoreAll(SlotEntry, []string{"r"}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RestoreAll(SlotExit, []string{"l"}); err != nil {
		t.Fatal(err)
	}
	gotR, gotL := rt.Gather("r"), rt.Gather("l")
	for i := range wantR {
		if gotR[i] != wantR[i] || gotL[i] != wantL[i] {
			t.Fatal("split checkpoint does not capture epoch end state")
		}
	}
}

func TestRuntimePanicsOnZeroProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRuntime(0, store.NewMemory(), nil)
}
