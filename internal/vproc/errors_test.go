package vproc

import (
	"errors"
	"testing"

	"abftckpt/internal/store"
)

func TestRestoreMissingSlot(t *testing.T) {
	rt := newTestRuntime(2, nil)
	if err := rt.Restore("nope", 0, []string{"x"}); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := rt.RestoreAll("nope", []string{"x"}); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestRestoreSkipsAbsentDatasets(t *testing.T) {
	rt := newTestRuntime(1, nil)
	rt.Procs[0].Data["a"] = []float64{1}
	if err := rt.Checkpoint("s", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	// Requesting a dataset the snapshot does not contain leaves state alone.
	rt.Procs[0].Data["b"] = []float64{7}
	if err := rt.Restore("s", 0, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if rt.Procs[0].Data["b"][0] != 7 {
		t.Fatal("absent dataset was clobbered")
	}
}

func TestGatherMissingDataset(t *testing.T) {
	rt := newTestRuntime(3, nil)
	if got := rt.Gather("absent"); got != nil {
		t.Fatalf("gather of absent dataset = %v", got)
	}
}

func TestParallelPropagatesError(t *testing.T) {
	rt := newTestRuntime(2, nil)
	boom := errors.New("boom")
	err := rt.Parallel(func(p *Proc) error {
		if p.Rank == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// The composite general phase surfaces checkpoint-store failures instead of
// continuing on a broken base.
type failingStore struct {
	store.ResultStore
	fail bool
}

func (s *failingStore) Put(key string, value []byte) error {
	if s.fail {
		return errors.New("store down")
	}
	return s.ResultStore.Put(key, value)
}

func TestCompositeSurfacesStoreFailure(t *testing.T) {
	fs := &failingStore{ResultStore: store.NewMemory()}
	rt := NewRuntime(2, fs, nil)
	for _, p := range rt.Procs {
		p.Data["r"] = []float64{1}
		p.Data["l"] = []float64{1}
	}
	c := &Composite{RT: rt, CkptEvery: 1, RemainderDatasets: []string{"r"}, LibraryDatasets: []string{"l"}}
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	fs.fail = true
	err := c.RunGeneral(3, func(p *Proc, s int) error { return nil })
	if err == nil {
		t.Fatal("checkpoint failure swallowed")
	}
}
