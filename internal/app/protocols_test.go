package app

import (
	"testing"

	"abftckpt/internal/store"
	"abftckpt/internal/vproc"
)

// runUnderPeriodic executes the heat application under a rollback-only
// periodic protocol (pure when libEvery == 0, bi otherwise).
func runUnderPeriodic(t *testing.T, cfg Config, inj *vproc.Injector, libEvery, epochs int) (*Heat, *vproc.Runtime) {
	t.Helper()
	rt := vproc.NewRuntime(cfg.DataProcs+1, store.NewMemory(), inj)
	h := New(cfg, rt)
	per := &vproc.Periodic{
		RT:                rt,
		CkptEvery:         cfg.CkptEvery,
		LibraryCkptEvery:  libEvery,
		RemainderDatasets: []string{DatasetSource},
		LibraryDatasets:   []string{DatasetField},
	}
	for e := 0; e < epochs; e++ {
		if err := per.RunEpoch(cfg.GeneralSteps, h.GeneralStep, h.Library()); err != nil {
			t.Fatal(err)
		}
	}
	return h, rt
}

// All three protocols must compute the same application result; they differ
// only in how they pay for failures. This is the live-state analogue of the
// paper's premise that the protocol choice is performance-only.
func TestThreeProtocolsSameResult(t *testing.T) {
	cfg := DefaultConfig()
	const epochs = 2

	composite := runApp(t, cfg, nil, epochs)
	pureH, _ := runUnderPeriodic(t, cfg, nil, 0, epochs)
	biH, _ := runUnderPeriodic(t, cfg, nil, 2, epochs)

	if d := maxAbsDiff(composite.FieldData().Data, pureH.FieldData().Data); d > 1e-9 {
		t.Errorf("pure periodic field diverged by %v", d)
	}
	if d := maxAbsDiff(composite.FieldData().Data, biH.FieldData().Data); d > 1e-9 {
		t.Errorf("bi periodic field diverged by %v", d)
	}
	if d := maxAbsDiff(composite.Sources(), pureH.Sources()); d > 1e-12 {
		t.Errorf("pure periodic sources diverged by %v", d)
	}
}

// Under failures, the periodic protocols still converge to the same state,
// but pay with replayed supersteps where the composite pays a cheap
// reconstruction — the paper's core trade-off, observed on live state.
func TestPeriodicVsCompositeFailureCost(t *testing.T) {
	cfg := DefaultConfig()
	// A failure counter that lands in the library phase of epoch 0 for both
	// controllers (6 general supersteps, then library).
	inj := func() *vproc.Injector { return &vproc.Injector{Forced: map[int]int{9: 1}} }

	clean := runApp(t, cfg, nil, 1)

	pureH, pureRT := runUnderPeriodic(t, cfg, inj(), 0, 1)
	if d := maxAbsDiff(clean.FieldData().Data, pureH.FieldData().Data); d > 1e-6 {
		t.Errorf("pure periodic result diverged by %v", d)
	}
	if pureRT.Stats.Rollbacks != 1 || pureRT.Stats.AbftRecoveries != 0 {
		t.Fatalf("pure periodic stats: %+v", pureRT.Stats)
	}

	compositeH := runApp(t, cfg, inj(), 1)
	s := compositeH.RT.Stats
	if s.LibraryFails != 1 || s.AbftRecoveries != 1 || s.Rollbacks != 0 || s.ReplayedSteps != 0 {
		t.Fatalf("composite stats: %+v", s)
	}
	if d := maxAbsDiff(clean.FieldData().Data, compositeH.FieldData().Data); d > 1e-6 {
		t.Errorf("composite result diverged by %v", d)
	}
}

// The bi protocol's incremental library checkpoints save less data than the
// pure protocol's full checkpoints on the same fault-free run.
func TestBiSavesLessThanPureOnHeatApp(t *testing.T) {
	cfg := DefaultConfig()
	_, pureRT := runUnderPeriodic(t, cfg, nil, 0, 2)
	_, biRT := runUnderPeriodic(t, cfg, nil, 2, 2)
	if biRT.Stats.SavedValues >= pureRT.Stats.SavedValues {
		t.Fatalf("bi saved %d values, pure %d", biRT.Stats.SavedValues, pureRT.Stats.SavedValues)
	}
}
