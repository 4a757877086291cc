package store

import "sync"

// Memory is an in-process ResultStore: a map under a mutex. It is the
// default second tier for servers that want cross-restart persistence
// handled elsewhere (or not at all), and the backing store of Handler in
// tests.
type Memory struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{m: map[string][]byte{}}
}

// Len reports the number of stored keys.
func (s *Memory) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Get implements ResultStore.
func (s *Memory) Get(key string) ([]byte, error) {
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	// Stored values are immutable by convention, but callers may append to
	// what they receive; hand out a copy.
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Put implements ResultStore.
func (s *Memory) Put(key string, value []byte) error {
	v := make([]byte, len(value))
	copy(v, value)
	s.mu.Lock()
	s.m[key] = v
	s.mu.Unlock()
	return nil
}

// GetBatch implements ResultStore.
func (s *Memory) GetBatch(keys []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, k := range keys {
		if v, ok := s.m[k]; ok {
			c := make([]byte, len(v))
			copy(c, v)
			out[k] = c
		}
	}
	return out, nil
}

// PutBatch implements ResultStore.
func (s *Memory) PutBatch(items []Item) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, it := range items {
		v := make([]byte, len(it.Value))
		copy(v, it.Value)
		s.m[it.Key] = v
	}
	return nil
}

// Flush implements ResultStore (no buffering).
func (s *Memory) Flush() error { return nil }

// Close implements ResultStore (nothing to release).
func (s *Memory) Close() error { return nil }
