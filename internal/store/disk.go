package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// Disk is the content-hashed on-disk ResultStore. The layout is exactly
// the cell cache's historical one — dir/<key[:2]>/<key>.json, sharded by
// the first hash byte to keep directories small — and values are the file
// bytes verbatim, so caches written before the store refactor read back
// unchanged and files this store writes are readable by old binaries.
type Disk struct {
	dir string
}

// NewDisk returns a store rooted at dir (created lazily on first write).
func NewDisk(dir string) *Disk { return &Disk{dir: dir} }

// Dir returns the store's root directory.
func (s *Disk) Dir() string { return s.dir }

// path shards keys by their first byte, matching the historical cache
// layout key for key. Get and Put check the key first, so the path never
// leaves the directory.
func (s *Disk) path(key string) string {
	if len(key) < 2 {
		return filepath.Join(s.dir, "__", key+".json")
	}
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Get implements ResultStore.
func (s *Disk) Get(key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: disk get: %w", err)
	}
	return data, nil
}

// Put implements ResultStore: write a temp file in the shard directory and
// rename it into place, so readers never observe a torn value.
func (s *Disk) Put(key string, value []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: disk dir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "cell-*")
	if err != nil {
		return fmt.Errorf("store: disk put: %w", err)
	}
	if _, err := tmp.Write(value); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: disk put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: disk put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: disk put: %w", err)
	}
	return nil
}

// GetBatch implements ResultStore. It reads what it can: an entry whose
// read fails (a bad key, a directory or an unreadable file at its path)
// is omitted like a missing one, so one damaged entry never costs the
// rest of the batch. Get reports the same entry as an error.
func (s *Disk) GetBatch(keys []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, err := s.Get(k); err == nil {
			out[k] = v
		}
	}
	return out, nil
}

// PutBatch implements ResultStore. The first write error aborts the batch;
// already-written items stay (content addressing makes that harmless).
func (s *Disk) PutBatch(items []Item) error {
	for _, it := range items {
		if err := s.Put(it.Key, it.Value); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements ResultStore (every Put rename is already durable-ish;
// the store adds no buffering of its own).
func (s *Disk) Flush() error { return nil }

// Close implements ResultStore.
func (s *Disk) Close() error { return nil }
