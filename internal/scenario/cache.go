package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"abftckpt/internal/store"
)

// cacheEntry is the stored record of one executed cell. Spec is stored in
// canonical form and re-verified on load, so a hash collision or a corrupt
// value degrades to a cache miss, never to a wrong result. The JSON shape
// (and, through store.Disk, the on-disk layout) predates the pluggable
// store and is kept byte-compatible: caches written before the refactor
// read back unchanged.
type cacheEntry struct {
	V         int             `json:"v"`
	Spec      json.RawMessage `json:"spec"`
	Result    CellResult      `json:"result"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// loadCell returns the cached result of the cell keyed k from the store,
// if present and intact. Any store error — missing key, unreachable
// remote, corrupt bytes — degrades to a miss; corrupt additionally
// reports that the miss was a damaged entry (checksum mismatch from the
// store, or bytes that came back but are not JSON), so the cache can
// count detected silent errors separately from cold reads. The
// re-execution that follows overwrites the damaged entry with a good one.
func loadCell(rs store.ResultStore, k cellKey) (res CellResult, ok, corrupt bool) {
	if rs == nil {
		return CellResult{}, false, false
	}
	data, err := rs.Get(k.hash)
	if err != nil {
		return CellResult{}, false, errors.Is(err, store.ErrCorrupt)
	}
	res, ok = decodeCellEntry(data, k)
	// A retrieved value that does not even parse is torn or flipped, not
	// cold; a parse that succeeds but fails the version or canonical-spec
	// check stays a plain miss (schema drift, hash collision).
	corrupt = !ok && !json.Valid(data)
	return res, ok, corrupt
}

// decodeCellEntry decodes one stored entry and verifies it really belongs
// to the cell keyed k.
func decodeCellEntry(data []byte, k cellKey) (CellResult, bool) {
	var entry cacheEntry
	if err := json.Unmarshal(data, &entry); err != nil {
		return CellResult{}, false
	}
	if entry.V != cellVersion || !bytes.Equal(entry.Spec, k.canonical) {
		return CellResult{}, false
	}
	return entry.Result, true
}

// Encoder-buffer pooling for the store codec: a campaign executing
// thousands of cells serializes one entry per cell, and per-call buffer
// growth was pure allocator churn. Buffers are pre-sized to the typical
// entry and returned to the pool after the store write; outliers past
// maxPooledEntryBuf are dropped instead of pinning memory.
const (
	cacheEntrySizeHint = 1 << 10
	maxPooledEntryBuf  = 64 << 10
)

var entryBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeCellEntry serializes one cache entry into a pooled, pre-sized
// buffer. The caller must hand the buffer back via putEntryBuf once the
// bytes have been consumed.
func encodeCellEntry(k cellKey, res CellResult, elapsedMS float64) (*bytes.Buffer, error) {
	buf := entryBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Grow(cacheEntrySizeHint)
	if err := json.NewEncoder(buf).Encode(cacheEntry{
		V: cellVersion, Spec: k.canonical, Result: res, ElapsedMS: elapsedMS,
	}); err != nil {
		putEntryBuf(buf)
		return nil, fmt.Errorf("scenario: marshal cache entry: %w", err)
	}
	return buf, nil
}

// putEntryBuf returns an encode buffer to the pool.
func putEntryBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledEntryBuf {
		entryBufPool.Put(buf)
	}
}

// storeCell persists the executed cell keyed k into the store. The store
// owns atomicity (store.Disk writes temp + rename) and may batch the
// commit (store.Batcher); either way the call returns only after the
// result is accepted or the commit failed.
func storeCell(rs store.ResultStore, k cellKey, res CellResult, elapsedMS float64) error {
	if rs == nil {
		return nil
	}
	buf, err := encodeCellEntry(k, res, elapsedMS)
	if err != nil {
		return err
	}
	defer putEntryBuf(buf)
	if err := rs.Put(k.hash, buf.Bytes()); err != nil {
		return fmt.Errorf("scenario: cache write: %w", err)
	}
	return nil
}
