package scenario

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"abftckpt/internal/store"
)

// CellTier identifies which tier of the two-tier cell cache satisfied a
// request.
type CellTier string

const (
	// TierMem: served from the in-memory LRU, no disk access.
	TierMem CellTier = "mem"
	// TierDisk: loaded from the on-disk cache and promoted into memory.
	TierDisk CellTier = "disk"
	// TierExec: a full miss; the cell was executed and stored in both tiers.
	TierExec CellTier = "exec"
	// TierCoalesced: an identical request was already in flight; this call
	// waited for its result instead of executing again (singleflight).
	TierCoalesced CellTier = "coalesced"
)

// CacheStats counts cache-tier outcomes since the cache was created. The
// counters are cumulative and monotone; tests and the server's metrics use
// deltas between snapshots.
type CacheStats struct {
	// MemHits counts requests served entirely from the in-memory LRU.
	MemHits int64 `json:"mem_hits"`
	// DiskHits counts requests served from the disk tier (and promoted).
	DiskHits int64 `json:"disk_hits"`
	// DiskReads counts disk-tier lookups, hit or miss. A warm in-memory
	// path leaves this unchanged.
	DiskReads int64 `json:"disk_reads"`
	// Executed counts cells actually executed (full misses).
	Executed int64 `json:"executed"`
	// Coalesced counts requests that joined an identical in-flight
	// execution instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// StoreErrors counts executed cells whose result could not be written
	// to the store tier (full disk, read-only directory, unreachable
	// remote, …). The result is still returned and kept in memory — a
	// broken store degrades the cache, never the request.
	StoreErrors int64 `json:"store_errors"`
	// ExecErrors counts cell executions that failed outright (the request
	// observed an error and nothing was cached).
	ExecErrors int64 `json:"exec_errors"`
	// CorruptEntries counts damaged entries the store returned — a
	// checksum mismatch or undecodable bytes. Each one is a detected
	// silent error: it degrades to a miss and the re-execution overwrites
	// the bad entry, so the artifact is never built from corrupt data. An
	// entry counts once however often it is read before it is overwritten
	// (a campaign run reads a missing cell twice: preload, then execution).
	CorruptEntries int64 `json:"corrupt_entries"`
}

// DefaultMemCells bounds the in-memory tier when NewCellCache is given no
// positive capacity. A cell result is a few hundred bytes, so the default
// tier tops out around a few MB.
const DefaultMemCells = 4096

// CellCache is the two-tier cell cache: a size-bounded in-memory LRU with
// singleflight request coalescing, layered over a pluggable result store
// (store.ResultStore — the content-hashed disk layout, an in-memory store,
// or a remote store over HTTP). Concurrent identical requests execute
// once; hot cells are served without touching the store. A CellCache is
// safe for concurrent use and is meant to be shared — between campaign
// jobs, and between jobs and synchronous single-cell evaluations.
type CellCache struct {
	store    store.ResultStore // nil: memory tier only
	dir      string            // root of a disk-layout store, "" otherwise
	capacity int

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	flight  map[string]*flightCall
	damaged map[string]bool // keys read corrupt and not yet rewritten
	stats   CacheStats
}

// memEntry is one LRU slot; results are immutable once inserted.
type memEntry struct {
	hash   string
	result CellResult
}

// flightCall is one in-flight execution; waiters block on done and read
// result/err afterwards (the channel close publishes the writes).
type flightCall struct {
	done   chan struct{}
	result CellResult
	err    error
}

// NewCellCache returns a cache whose second tier is the historical disk
// layout rooted at dir (empty disables the second tier entirely), holding
// at most memCells results in memory (<= 0 selects DefaultMemCells).
// Disk-tier values are checksum-framed on write and verified on read
// (store.WithChecksum); entries written by pre-checksum binaries pass
// through unverified, so existing caches stay warm.
func NewCellCache(dir string, memCells int) *CellCache {
	var rs store.ResultStore
	if dir != "" {
		rs = store.WithChecksum(store.NewDisk(dir))
	}
	c := NewCellCacheStore(rs, memCells)
	c.dir = dir
	return c
}

// NewCellCacheStore returns a cache whose second tier is the given result
// store (nil: memory tier only). The store may be any backend — memory,
// disk, remote — optionally wrapped in a store.Batcher; the cache only
// ever issues Get and Put with the cell content hash as the key.
func NewCellCacheStore(rs store.ResultStore, memCells int) *CellCache {
	if memCells <= 0 {
		memCells = DefaultMemCells
	}
	return &CellCache{
		store:    rs,
		capacity: memCells,
		entries:  map[string]*list.Element{},
		order:    list.New(),
		flight:   map[string]*flightCall{},
		damaged:  map[string]bool{},
	}
}

// Dir returns the root directory when the second tier is the disk layout
// ("" for any other backend, including none).
func (c *CellCache) Dir() string { return c.dir }

// Store returns the second-tier result store (nil when the cache is
// memory-only). The server mounts the store API over it so workers can
// share one cache.
func (c *CellCache) Store() store.ResultStore { return c.store }

// Flush forces buffered store writes (a store.Batcher in the stack) to
// commit. Memory-only caches return nil.
func (c *CellCache) Flush() error {
	if c.store == nil {
		return nil
	}
	return c.store.Flush()
}

// Close flushes and releases the second-tier store. The cache must not be
// used afterwards.
func (c *CellCache) Close() error {
	if c.store == nil {
		return nil
	}
	return c.store.Close()
}

// Stats returns a snapshot of the cache counters.
func (c *CellCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// insertLocked adds a result to the memory tier, evicting from the LRU
// tail past capacity. Callers hold c.mu.
func (c *CellCache) insertLocked(hash string, res CellResult) {
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[hash] = c.order.PushFront(&memEntry{hash: hash, result: res})
	for len(c.entries) > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*memEntry).hash)
	}
}

// noteCorruptLocked counts a damaged entry read from the store, once until
// it is read intact or rewritten. Callers hold c.mu.
func (c *CellCache) noteCorruptLocked(hash string) {
	if !c.damaged[hash] {
		c.damaged[hash] = true
		c.stats.CorruptEntries++
	}
}

// Lookup consults the memory tier then the store tier, never executing. A
// store hit is promoted into memory.
func (c *CellCache) Lookup(spec CellSpec) (CellResult, CellTier, bool) {
	return c.lookup(spec.key())
}

// lookup is Lookup for a cell whose key the caller already derived.
func (c *CellCache) lookup(k cellKey) (CellResult, CellTier, bool) {
	c.mu.Lock()
	if el, ok := c.entries[k.hash]; ok {
		c.order.MoveToFront(el)
		c.stats.MemHits++
		res := el.Value.(*memEntry).result
		c.mu.Unlock()
		return res, TierMem, true
	}
	if c.store == nil {
		c.mu.Unlock()
		return CellResult{}, "", false
	}
	c.stats.DiskReads++
	c.mu.Unlock()
	res, ok, corrupt := loadCell(c.store, k)
	if !ok {
		if corrupt {
			c.mu.Lock()
			c.noteCorruptLocked(k.hash)
			c.mu.Unlock()
		}
		return CellResult{}, "", false
	}
	c.mu.Lock()
	delete(c.damaged, k.hash)
	c.stats.DiskHits++
	c.insertLocked(k.hash, res)
	c.mu.Unlock()
	return res, TierDisk, true
}

// GetOrExecute returns the cell's result: from memory, else from disk,
// else by executing the cell and storing the result in both tiers.
// Concurrent calls for the same cell coalesce — exactly one executes, the
// rest wait for its result and report TierCoalesced.
func (c *CellCache) GetOrExecute(spec CellSpec) (CellResult, CellTier, error) {
	return c.do(spec.key(), spec.Execute)
}

// do is GetOrExecute for a cell whose key the caller already derived, with
// an injectable executor (the runner and shard execution pass their own;
// tests gate it to pin down coalescing).
func (c *CellCache) do(k cellKey, exec func() (CellResult, error)) (CellResult, CellTier, error) {
	hash := k.hash
	c.mu.Lock()
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		c.stats.MemHits++
		res := el.Value.(*memEntry).result
		c.mu.Unlock()
		return res, TierMem, nil
	}
	if fc, ok := c.flight[hash]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-fc.done
		if fc.err != nil {
			return CellResult{}, TierCoalesced, fc.err
		}
		return fc.result, TierCoalesced, nil
	}
	fc := &flightCall{done: make(chan struct{})}
	c.flight[hash] = fc
	c.mu.Unlock()

	// If the executor panics, unblock every coalesced waiter with an
	// error before re-panicking; a leaked flight entry would otherwise
	// hang all future requests for this cell forever.
	settled := false
	defer func() {
		if settled {
			return
		}
		c.mu.Lock()
		delete(c.flight, hash)
		c.mu.Unlock()
		fc.err = fmt.Errorf("scenario: cell %s: execution panicked", hash)
		close(fc.done)
	}()

	// Leader path: store, then execution. No lock is held during I/O or
	// cell execution.
	tier := TierDisk
	var res CellResult
	var err error
	hit := false
	storeFailed := false
	if c.store != nil {
		c.mu.Lock()
		c.stats.DiskReads++
		c.mu.Unlock()
		var corrupt bool
		res, hit, corrupt = loadCell(c.store, k)
		if corrupt {
			c.mu.Lock()
			c.noteCorruptLocked(hash)
			c.mu.Unlock()
		}
	}
	if !hit {
		tier = TierExec
		start := time.Now()
		res, err = exec()
		// A cache-write failure must not masquerade as an execution
		// failure: the result is correct, only the store tier is degraded
		// (full disk, read-only directory, unreachable remote). Keep the
		// result, serve it to every coalesced waiter, and count the store
		// error.
		if err == nil {
			storeFailed = storeCell(c.store, k, res, float64(time.Since(start).Microseconds())/1000) != nil
		}
	}
	c.mu.Lock()
	if err == nil {
		if hit {
			c.stats.DiskHits++
		} else {
			c.stats.Executed++
		}
		if storeFailed {
			c.stats.StoreErrors++
		} else {
			delete(c.damaged, hash) // a hit read it intact, or the write replaced it
		}
		c.insertLocked(hash, res)
	} else {
		c.stats.ExecErrors++
	}
	delete(c.flight, hash)
	c.mu.Unlock()
	fc.result, fc.err = res, err
	settled = true
	close(fc.done)
	if err != nil {
		return CellResult{}, tier, err
	}
	return res, tier, nil
}
