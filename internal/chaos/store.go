package chaos

import (
	"errors"
	"fmt"
	"sync/atomic"

	"abftckpt/internal/store"
)

// ErrInjected is the base error for faults fabricated by the injector;
// every injected store error and transport connection drop wraps it, so
// tests can assert errors.Is(err, chaos.ErrInjected).
var ErrInjected = errors.New("chaos: injected fault")

// StoreStats counts what the store face actually injected — the replayed
// fault schedule made visible, for reports and assertions.
type StoreStats struct {
	Ops       int64 `json:"ops"`
	ErrsGet   int64 `json:"errs_get"`
	ErrsPut   int64 `json:"errs_put"`
	Corrupted int64 `json:"corrupted"`
}

// Store wraps a store.ResultStore with seeded fault injection: Get/Put
// failures at ErrRate, one-bit corruption of read values at CorruptRate,
// and uniform [0, MaxDelay) latency per operation. Decisions are keyed
// per (op, key), so each key's fault schedule is fixed by the seed alone.
//
// Layering matters: put the injector UNDER the checksum wrapper
// (store.WithChecksum(chaos.NewStore(inner, f))) to model media
// corruption the checksum must catch, or over it to model a lying
// transport above an honest store.
type Store struct {
	inner  store.ResultStore
	faults Faults
	dice   *dice

	ops       atomic.Int64
	errsGet   atomic.Int64
	errsPut   atomic.Int64
	corrupted atomic.Int64
}

// NewStore wraps inner with the fault recipe.
func NewStore(inner store.ResultStore, f Faults) *Store {
	return &Store{inner: inner, faults: f, dice: newDice(f.Seed)}
}

// Stats returns a snapshot of the injection counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Ops:       s.ops.Load(),
		ErrsGet:   s.errsGet.Load(),
		ErrsPut:   s.errsPut.Load(),
		Corrupted: s.corrupted.Load(),
	}
}

// Get implements store.ResultStore.
func (s *Store) Get(key string) ([]byte, error) {
	s.ops.Add(1)
	s.dice.delay("delay/get/"+key, s.faults.MaxDelay)
	if s.dice.roll("err/get/"+key, s.faults.ErrRate) {
		s.errsGet.Add(1)
		return nil, fmt.Errorf("%w: get %q", ErrInjected, key)
	}
	value, err := s.inner.Get(key)
	if err != nil {
		return nil, err
	}
	if s.dice.roll("corrupt/"+key, s.faults.CorruptRate) && s.dice.flipBit("corruptbit/"+key, value) {
		s.corrupted.Add(1)
	}
	return value, nil
}

// Put implements store.ResultStore.
func (s *Store) Put(key string, value []byte) error {
	s.ops.Add(1)
	s.dice.delay("delay/put/"+key, s.faults.MaxDelay)
	if s.dice.roll("err/put/"+key, s.faults.ErrRate) {
		s.errsPut.Add(1)
		return fmt.Errorf("%w: put %q", ErrInjected, key)
	}
	return s.inner.Put(key, value)
}

// GetBatch implements store.ResultStore, applying per-key decisions so
// the schedule does not depend on how callers group keys into batches:
// an injected error drops that key from the result (a miss), corruption
// flips a bit of its value. The inner store's values pass through along
// with its error (a *store.CorruptError comes with the intact values).
func (s *Store) GetBatch(keys []string) (map[string][]byte, error) {
	s.ops.Add(1)
	if len(keys) > 0 {
		s.dice.delay("delay/get/"+keys[0], s.faults.MaxDelay)
	}
	got, err := s.inner.GetBatch(keys)
	for _, key := range keys {
		value, ok := got[key]
		if !ok {
			continue
		}
		if s.dice.roll("err/get/"+key, s.faults.ErrRate) {
			s.errsGet.Add(1)
			delete(got, key)
			continue
		}
		if s.dice.roll("corrupt/"+key, s.faults.CorruptRate) && s.dice.flipBit("corruptbit/"+key, value) {
			s.corrupted.Add(1)
		}
	}
	return got, err
}

// PutBatch implements store.ResultStore with per-key error decisions; if
// any key draws an error the whole batch fails (matching how a torn
// batch write surfaces), but the schedule stays per-key deterministic.
func (s *Store) PutBatch(items []store.Item) error {
	s.ops.Add(1)
	if len(items) > 0 {
		s.dice.delay("delay/put/"+items[0].Key, s.faults.MaxDelay)
	}
	for _, it := range items {
		if s.dice.roll("err/put/"+it.Key, s.faults.ErrRate) {
			s.errsPut.Add(1)
			return fmt.Errorf("%w: put batch (key %q)", ErrInjected, it.Key)
		}
	}
	return s.inner.PutBatch(items)
}

// Flush implements store.ResultStore.
func (s *Store) Flush() error { return s.inner.Flush() }

// Close implements store.ResultStore.
func (s *Store) Close() error { return s.inner.Close() }
