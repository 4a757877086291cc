// Package store is the pluggable result-store layer behind the campaign
// cell cache: a keyed blob store holding one serialized cell entry per
// content hash. Three backends share one interface — an in-memory map, the
// content-hashed on-disk layout the cache has always used (byte- and
// key-compatible, so existing warm caches survive), and an HTTP client
// speaking a small batch GET/PUT API (Handler serves it) — plus
// Checksummed, which frames values with a checksum and verifies reads.
// Callers batch themselves: the cell cache reads with one GetBatch per
// preload chunk, shard, dispatched unit or single-cell request, and
// writes executed results with one PutBatch per cohort, shard, unit or
// single-cell request.
//
// The store deliberately knows nothing about cell semantics: keys are
// opaque names under one rule (ErrBadKey), values are opaque bytes.
// Verification (decoding an entry and re-checking its spec against the
// hash) stays in the caller, so a corrupt value degrades to a cache miss
// there, never to a wrong result.
package store

import (
	"errors"
	"fmt"
)

// ErrNotFound reports a key with no stored value. Backends return it from
// Get; GetBatch simply omits missing keys.
var ErrNotFound = errors.New("store: key not found")

// maxKeyLen is the longest key checkKey accepts.
const maxKeyLen = 128

// ErrBadKey reports a key that breaks the store key rule.
var ErrBadKey = errors.New("store: key must be 1-128 bytes of [0-9a-z-]")

// checkKey enforces the one store key rule: 1 to maxKeyLen bytes of
// [0-9a-z-]. Cell hashes (lowercase hex) and the server's "job-journal"
// pass it; a key with a path separator or a dot, which could name a file
// outside a Disk store's directory, does not. Disk and Handler enforce it.
func checkKey(key string) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("%w (got %d bytes)", ErrBadKey, len(key))
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || c == '-') {
			return fmt.Errorf("%w (byte %d is %q)", ErrBadKey, i, c)
		}
	}
	return nil
}

// Item is one key/value pair of a batched write.
type Item struct {
	// Key is the cell content hash (lowercase hex); see ErrBadKey.
	Key string `json:"key"`
	// Value is the serialized cell entry. It marshals as base64 in the
	// remote protocol.
	Value []byte `json:"value"`
}

// ResultStore is a keyed blob store for executed cell results. All methods
// are safe for concurrent use.
type ResultStore interface {
	// Get returns the value stored under key, or ErrNotFound.
	Get(key string) ([]byte, error)
	// Put stores value under key, overwriting any previous value. Keys are
	// content hashes, so values for one key carry the same cell result;
	// they may differ in metadata (an entry records its execution time,
	// elapsed_ms), and an overwrite replaces one valid entry with another.
	Put(key string, value []byte) error
	// GetBatch returns the stored values of the given keys; missing keys
	// are omitted, not errors.
	GetBatch(keys []string) (map[string][]byte, error)
	// PutBatch stores every item. A non-nil error means the batch may be
	// partially applied; content addressing makes retries safe.
	PutBatch(items []Item) error
	// Flush forces any buffered writes to the backing medium and returns
	// the first commit error. Direct backends buffer nothing and return
	// nil.
	Flush() error
	// Close flushes and releases the store. The store must not be used
	// afterwards.
	Close() error
}
