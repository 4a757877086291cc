package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"abftckpt/internal/store"
)

// decodeStored decodes the retrieved value of the cell keyed k. A value
// that is not even JSON is torn or flipped, not cold, and reports corrupt:
// the cache counts it as a detected silent error, and the re-execution
// that follows overwrites it. JSON the entry codec rejects (another
// version, another cell's spec, a shape no writer emits) stays a plain
// miss.
func decodeStored(data []byte, k cellKey) (res CellResult, ok, corrupt bool) {
	res, ok = decodeCellEntry(data, k)
	return res, ok, !ok && !json.Valid(data)
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

// encodeCellEntry serializes one cache entry (see appendCellEntry) into a
// pooled, pre-sized buffer. The caller must hand the buffer back via
// putEntryBuf once the bytes have been consumed.
func encodeCellEntry(k cellKey, res CellResult, elapsedMS float64) (*bytes.Buffer, error) {
	buf := entryBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Grow(cacheEntrySizeHint)
	b, err := appendCellEntry(buf.AvailableBuffer(), k, &res, elapsedMS)
	if err != nil {
		putEntryBuf(buf)
		return nil, fmt.Errorf("scenario: marshal cache entry: %w", err)
	}
	buf.Write(b)
	return buf, nil
}

// putEntryBuf returns an encode buffer to the pool.
func putEntryBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledEntryBuf {
		entryBufPool.Put(buf)
	}
}

// storeCells persists executed cells into the store in one PutBatch. The
// store owns atomicity (store.Disk writes temp + rename). The error covers
// the whole batch: a PutBatch may be partially applied, and content
// addressing makes the next write of any lost entry safe.
func storeCells(rs store.ResultStore, cells []*cellState) error {
	if rs == nil || len(cells) == 0 {
		return nil
	}
	items := make([]store.Item, 0, len(cells))
	bufs := make([]*bytes.Buffer, 0, len(cells))
	defer func() {
		for _, buf := range bufs {
			putEntryBuf(buf)
		}
	}()
	for _, st := range cells {
		buf, err := encodeCellEntry(st.key, st.result, st.elapsedMS)
		if err != nil {
			return err
		}
		bufs = append(bufs, buf)
		items = append(items, store.Item{Key: st.key.hash, Value: buf.Bytes()})
	}
	if err := rs.PutBatch(items); err != nil {
		return fmt.Errorf("scenario: cache write: %w", err)
	}
	return nil
}
