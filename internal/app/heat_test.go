package app

import (
	"math"
	"testing"

	"abftckpt/internal/store"
	"abftckpt/internal/vproc"
)

func runApp(t *testing.T, cfg Config, inj *vproc.Injector, epochs int) *Heat {
	t.Helper()
	rt := vproc.NewRuntime(cfg.DataProcs+1, store.NewMemory(), inj)
	h := New(cfg, rt)
	if err := h.Run(epochs); err != nil {
		t.Fatal(err)
	}
	return h
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFaultFreeRunIsFinite(t *testing.T) {
	h := runApp(t, DefaultConfig(), nil, 2)
	field := h.FieldData()
	for _, v := range field.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("field contains non-finite values")
		}
	}
	if h.RT.Stats.Failures != 0 || h.RT.Stats.Rollbacks != 0 {
		t.Fatalf("unexpected failures in fault-free run: %+v", h.RT.Stats)
	}
}

// The central correctness property of the composite protocol: a run with
// injected failures produces the same final state as the failure-free run
// (up to checksum-reconstruction rounding).
func TestFailuresDoNotChangeTheResult(t *testing.T) {
	cfg := DefaultConfig()
	clean := runApp(t, cfg, nil, 2)

	// Force failures in both phases: superstep counters are consumed by
	// both general and library steps in order. With GeneralSteps=6,
	// LibSteps+1=6 per epoch, counter 3 is a GENERAL step and counter 9
	// lands in the LIBRARY phase of epoch 1.
	inj := &vproc.Injector{Forced: map[int]int{3: 1, 9: 2}}
	faulty := runApp(t, cfg, inj, 2)

	if faulty.RT.Stats.Failures != 2 {
		t.Fatalf("expected 2 failures, got %+v", faulty.RT.Stats)
	}
	if faulty.RT.Stats.GeneralFails != 1 || faulty.RT.Stats.LibraryFails != 1 {
		t.Fatalf("failure placement: %+v", faulty.RT.Stats)
	}
	if d := maxAbsDiff(clean.Sources(), faulty.Sources()); d > 1e-9 {
		t.Errorf("sources diverged by %v", d)
	}
	if d := maxAbsDiff(clean.FieldData().Data, faulty.FieldData().Data); d > 1e-6 {
		t.Errorf("field diverged by %v", d)
	}
	if faulty.RT.Stats.Rollbacks != 1 {
		t.Errorf("general failure should cause exactly 1 rollback: %+v", faulty.RT.Stats)
	}
	if faulty.RT.Stats.AbftRecoveries != 1 {
		t.Errorf("library failure should cause exactly 1 ABFT recovery: %+v", faulty.RT.Stats)
	}
}

// Killing the checksum process must also be recoverable (its blocks are
// recomputed from the surviving data).
func TestChecksumProcessFailure(t *testing.T) {
	cfg := DefaultConfig()
	clean := runApp(t, cfg, nil, 1)
	// Counter 7 is within the first library phase (6 general + entry at 6).
	inj := &vproc.Injector{Forced: map[int]int{7: cfg.DataProcs}}
	faulty := runApp(t, cfg, inj, 1)
	if faulty.RT.Stats.LibraryFails != 1 {
		t.Fatalf("expected a library failure: %+v", faulty.RT.Stats)
	}
	if d := maxAbsDiff(clean.FieldData().Data, faulty.FieldData().Data); d > 1e-6 {
		t.Errorf("field diverged by %v after checksum-proc failure", d)
	}
}

// Random failure storms: whatever the injection pattern, the run completes
// and matches the clean result.
func TestRandomFailureStorm(t *testing.T) {
	cfg := DefaultConfig()
	clean := runApp(t, cfg, nil, 2)
	for _, seed := range []uint64{1, 2, 3} {
		inj := vproc.NewInjector(0.08, seed)
		faulty := runApp(t, cfg, inj, 2)
		if d := maxAbsDiff(clean.FieldData().Data, faulty.FieldData().Data); d > 1e-6 {
			t.Errorf("seed %d: field diverged by %v (%d failures)", seed, d, faulty.RT.Stats.Failures)
		}
		if d := maxAbsDiff(clean.Sources(), faulty.Sources()); d > 1e-9 {
			t.Errorf("seed %d: sources diverged by %v", seed, d)
		}
	}
}

// The library phase never rolls back: general-phase replay counters stay at
// zero when failures only strike the library.
func TestLibraryFailureAvoidsRollback(t *testing.T) {
	cfg := DefaultConfig()
	inj := &vproc.Injector{Forced: map[int]int{8: 0}}
	h := runApp(t, cfg, inj, 1)
	if h.RT.Stats.LibraryFails != 1 || h.RT.Stats.Rollbacks != 0 || h.RT.Stats.ReplayedSteps != 0 {
		t.Fatalf("library failure must use forward recovery only: %+v", h.RT.Stats)
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := DefaultConfig()
	h := runApp(t, cfg, nil, 3)
	// Per epoch: entry+exit partial checkpoints; Init adds two more.
	if want := 2 + 3*2; h.RT.Stats.PartialCkpts != want {
		t.Errorf("partial ckpts = %d, want %d", h.RT.Stats.PartialCkpts, want)
	}
	// GeneralSteps=6 with CkptEvery=2 -> 2 periodic ckpts per epoch
	// (after steps 2 and 4; none after the final step).
	if want := 3 * 2; h.RT.Stats.FullCkpts != want {
		t.Errorf("full ckpts = %d, want %d", h.RT.Stats.FullCkpts, want)
	}
	wantSteps := 3 * (cfg.GeneralSteps + cfg.LibSteps + 1)
	if h.RT.Stats.Supersteps != wantSteps {
		t.Errorf("supersteps = %d, want %d", h.RT.Stats.Supersteps, wantSteps)
	}
}

func TestNewPanicsOnWrongRuntimeSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(DefaultConfig(), vproc.NewRuntime(2, store.NewMemory(), nil))
}

func BenchmarkEpochFaultFree(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		rt := vproc.NewRuntime(cfg.DataProcs+1, store.NewMemory(), nil)
		h := New(cfg, rt)
		if err := h.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpochWithFailures(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		rt := vproc.NewRuntime(cfg.DataProcs+1, store.NewMemory(), vproc.NewInjector(0.1, uint64(i)))
		h := New(cfg, rt)
		if err := h.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}
