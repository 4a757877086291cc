package scenario

import (
	"container/list"
	"errors"
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
	// (say, by two jobs sharing the cache that both preload it).
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
	return NewCellCacheStore(rs, memCells)
}

// NewCellCacheStore returns a cache whose second tier is the given result
// store (nil: memory tier only). The store may be any backend — memory,
// disk, remote — under any pass-through wrappers; the cache keys every
// Get, GetBatch and PutBatch by cell content hash. Reads count a corrupt
// entry whenever the store's error says so: store.ErrCorrupt from Get,
// a *store.CorruptError naming the keys from GetBatch.
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

// Store returns the second-tier result store (nil when the cache is
// memory-only). The server mounts the store API over it so workers can
// share one cache.
func (c *CellCache) Store() store.ResultStore { return c.store }

// Close releases the second-tier store. The cache buffers no writes
// (writeBatch returns once its PutBatch does), so there is nothing of its
// own to flush. The cache must not be used afterwards.
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

// memHitLocked serves hash from the memory tier, if present, refreshing
// its LRU position. Callers hold c.mu.
func (c *CellCache) memHitLocked(hash string) (CellResult, bool) {
	el, ok := c.entries[hash]
	if !ok {
		return CellResult{}, false
	}
	c.order.MoveToFront(el)
	c.stats.MemHits++
	return el.Value.(*memEntry).result, true
}

// lookup is lookupBatch of one key.
func (c *CellCache) lookup(k cellKey) (CellResult, CellTier, bool) {
	st := cellState{key: k}
	c.lookupBatch([]*cellState{&st})
	return st.result, st.tier, st.tier != ""
}

// GetOrExecute returns the cell's result: from memory, else from disk,
// else by executing the cell and storing the result in both tiers.
// Concurrent calls for the same cell coalesce — exactly one executes, the
// rest wait for its result and report TierCoalesced.
func (c *CellCache) GetOrExecute(spec CellSpec) (CellResult, CellTier, error) {
	_, res, tier, err := c.Evaluate(spec)
	return res, tier, err
}

// Evaluate is GetOrExecute that also returns the cell's hash (its cache
// key, what CellSpec.Hash returns), taken from the one key it derives:
// what POST /v1/cells answers with.
func (c *CellCache) Evaluate(spec CellSpec) (hash string, res CellResult, tier CellTier, err error) {
	k := spec.key()
	res, tier, err = c.do(k, spec.Execute)
	return k.hash, res, tier, err
}

// do is GetOrExecute for a cell whose key the caller already derived, with
// an injectable executor (tests gate it to pin down coalescing): lookup,
// then execute, then a writeBatch of the one executed cell.
func (c *CellCache) do(k cellKey, exec func() (CellResult, error)) (CellResult, CellTier, error) {
	if res, tier, ok := c.lookup(k); ok {
		return res, tier, nil
	}
	res, tier, elapsedMS, err := c.execute(k, exec)
	if err == nil && tier == TierExec {
		c.writeBatch([]*cellState{{key: k, result: res, tier: tier, elapsedMS: elapsedMS}})
	}
	return res, tier, err
}

// execute is the singleflight, and it runs the executor and nothing else.
// A memory hit returns at once, and a request for a cell already in
// flight waits for that execution (TierCoalesced). Otherwise this call
// leads: it executes, puts the result into memory and settles every
// waiter. Store traffic is the caller's: every read happens before
// (lookupBatch) and the write of a TierExec result after
// (writeBatch), which also settles its store-error and damage accounting.
// elapsedMS is the execution time of a TierExec result.
func (c *CellCache) execute(k cellKey, exec func() (CellResult, error)) (CellResult, CellTier, float64, error) {
	c.mu.Lock()
	res, tier, fc := c.beginLocked(k.hash)
	c.mu.Unlock()
	switch tier {
	case TierMem:
		return res, TierMem, 0, nil
	case TierCoalesced:
		<-fc.done
		if fc.err != nil {
			return CellResult{}, TierCoalesced, 0, fc.err
		}
		return fc.result, TierCoalesced, 0, nil
	}

	// If the executor panics, unblock every coalesced waiter with an
	// error before re-panicking; a leaked flight entry would otherwise
	// hang all future requests for this cell forever.
	settled := false
	defer func() {
		if !settled {
			c.abandon(k.hash, fc)
		}
	}()

	// No lock is held during cell execution.
	start := time.Now()
	res, err := exec()
	elapsedMS := float64(time.Since(start).Microseconds()) / 1000
	c.land(k.hash, fc, res, err)
	settled = true
	if err != nil {
		return CellResult{}, TierExec, 0, err
	}
	return res, TierExec, elapsedMS, nil
}

// beginLocked is the singleflight's entry for one cell: a memory hit
// returns its result (TierMem); a cell already in flight returns that
// flight to wait for (TierCoalesced); otherwise it opens a flight that the
// caller leads (TierExec) and must land, or abandon if it panics. Callers
// hold c.mu.
func (c *CellCache) beginLocked(hash string) (CellResult, CellTier, *flightCall) {
	if res, ok := c.memHitLocked(hash); ok {
		return res, TierMem, nil
	}
	if fc, ok := c.flight[hash]; ok {
		c.stats.Coalesced++
		return CellResult{}, TierCoalesced, fc
	}
	fc := &flightCall{done: make(chan struct{})}
	c.flight[hash] = fc
	return CellResult{}, TierExec, fc
}

// land settles a flight the caller leads: a result goes into memory, and
// the flight ends with every waiter woken.
func (c *CellCache) land(hash string, fc *flightCall, res CellResult, err error) {
	c.mu.Lock()
	if err != nil {
		c.stats.ExecErrors++
	} else {
		c.stats.Executed++
		c.insertLocked(hash, res)
	}
	delete(c.flight, hash)
	c.mu.Unlock()
	fc.result, fc.err = res, err
	close(fc.done)
}

// abandon ends a flight whose executor panicked, waking every waiter with
// an error.
func (c *CellCache) abandon(hash string, fc *flightCall) {
	c.mu.Lock()
	delete(c.flight, hash)
	c.mu.Unlock()
	fc.err = fmt.Errorf("scenario: cell %s: execution panicked", hash)
	close(fc.done)
}

// lookupBatch is the cache's one read: it consults the memory tier, then
// reads every miss from the store with one GetBatch, never executing. The
// cells must be unsettled; each hit is settled in place, its result and
// tier (TierMem or TierDisk) set, and a miss keeps its empty tier. A
// store hit clears the key's damaged mark and is promoted into memory. A
// damaged entry, one that comes back unparseable or that the store names
// in a *store.CorruptError (whose intact values still count as hits),
// counts once until it is read intact or rewritten. Any other store error
// degrades every store read of the batch to a miss.
func (c *CellCache) lookupBatch(cells []*cellState) {
	misses := 0
	c.mu.Lock()
	for _, st := range cells {
		if res, ok := c.memHitLocked(st.key.hash); ok {
			st.result, st.tier = res, TierMem
		} else {
			misses++
		}
	}
	if c.store == nil || misses == 0 {
		c.mu.Unlock()
		return
	}
	c.stats.DiskReads += int64(misses)
	c.mu.Unlock()

	hashes := make([]string, 0, misses)
	for _, st := range cells {
		if st.tier == "" {
			hashes = append(hashes, st.key.hash)
		}
	}
	got, err := c.store.GetBatch(hashes)
	var ce *store.CorruptError
	if err != nil && !errors.As(err, &ce) {
		return
	}
	var damaged []string
	if ce != nil {
		damaged = ce.Keys
	}
	// Decode outside the lock; only the bookkeeping below holds it.
	for _, st := range cells {
		if data, ok := got[st.key.hash]; ok && st.tier == "" {
			r, hit, corrupt := decodeStored(data, st.key)
			if hit {
				st.result, st.tier = r, TierDisk
			} else if corrupt {
				damaged = append(damaged, st.key.hash)
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range damaged {
		if !c.damaged[h] {
			c.damaged[h] = true
			c.stats.CorruptEntries++
		}
	}
	for _, st := range cells {
		if st.tier == TierDisk {
			delete(c.damaged, st.key.hash)
			c.stats.DiskHits++
			c.insertLocked(st.key.hash, st.result)
		}
	}
}

// cellDone receives one cell from a batch path (settle, execCells) once
// the cell has settled, or with the error that stopped it; returning
// false stops the batch.
type cellDone func(st *cellState, err error) bool

// settle is the cache's read → execute → write sequence for a batch of
// unsettled cells: one lookupBatch, done for each hit, exec for the
// misses (in order), and one writeBatch of the cells exec executed. done
// returning false on a hit skips exec and the write.
func (c *CellCache) settle(cells []*cellState, done cellDone, exec func(misses []*cellState) []*cellState) {
	c.lookupBatch(cells)
	var misses []*cellState
	for _, st := range cells {
		switch {
		case st.tier == "":
			misses = append(misses, st)
		case !done(st, nil):
			return
		}
	}
	c.writeBatch(exec(misses))
}

// execCells runs the cells, in order, through the singleflight (execute),
// computing each with run, and settles each in place (result, tier and,
// for TierExec, execution time) before handing it to done; an error, or
// done returning false, stops it. It returns the cells executed here, for
// the caller's writeBatch (none when the cache has no store).
func (c *CellCache) execCells(cells []*cellState, run func(st *cellState) (CellResult, error), done cellDone) []*cellState {
	var executed []*cellState
	for _, st := range cells {
		res, tier, elapsedMS, err := c.execute(st.key, func() (CellResult, error) { return run(st) })
		if err == nil {
			st.result, st.tier, st.elapsedMS = res, tier, elapsedMS
			if tier == TierExec && c.store != nil {
				executed = append(executed, st)
			}
		}
		if !done(st, err) || err != nil {
			break
		}
	}
	return executed
}

// execJoint is execCells for cells that one computation settles together
// (a trace cohort's walk). Under one lock each cell is served from memory,
// joins a flight already under way, or is claimed. run computes every
// claimed cell in one call, setting each one's result, and returns nil or
// one error per claimed cell; each claimed cell then lands with its result
// (or error) and an equal share of the call's wall time. Last, every cell
// is settled in place and handed to done, in order, a joined one once its
// flight lands; an error, or done returning false, stops that. A panic in
// run abandons every claimed flight, waking its waiters with an error,
// before it propagates. It returns the cells executed here, for the
// caller's writeBatch (none when the cache has no store).
func (c *CellCache) execJoint(cells []*cellState, run func(claimed []*cellState) []error, done cellDone) []*cellState {
	type claim struct {
		tier CellTier
		fc   *flightCall
		err  error // a claimed cell's execution error
	}
	claims := make([]claim, len(cells))
	claimed := make([]*cellState, 0, len(cells))
	c.mu.Lock()
	for i, st := range cells {
		var res CellResult
		res, claims[i].tier, claims[i].fc = c.beginLocked(st.key.hash)
		switch claims[i].tier {
		case TierMem:
			st.result, st.tier = res, TierMem
		case TierExec:
			claimed = append(claimed, st)
		}
	}
	c.mu.Unlock()

	var executed []*cellState
	if len(claimed) > 0 {
		landed := false
		defer func() {
			if !landed {
				for i, st := range cells {
					if claims[i].tier == TierExec {
						c.abandon(st.key.hash, claims[i].fc)
					}
				}
			}
		}()
		start := time.Now()
		errs := run(claimed)
		shareMS := float64(time.Since(start).Microseconds()) / 1000 / float64(len(claimed))
		j := 0
		for i, st := range cells {
			cl := &claims[i]
			if cl.tier != TierExec {
				continue
			}
			if errs != nil {
				cl.err = errs[j]
			}
			j++
			c.land(st.key.hash, cl.fc, st.result, cl.err)
			if cl.err == nil {
				st.tier, st.elapsedMS = TierExec, shareMS
				if c.store != nil {
					executed = append(executed, st)
				}
			}
		}
		landed = true
	}

	for i, st := range cells {
		cl := &claims[i]
		err := cl.err
		if cl.tier == TierCoalesced {
			<-cl.fc.done
			if err = cl.fc.err; err == nil {
				st.result, st.tier = cl.fc.result, TierCoalesced
			}
		}
		if !done(st, err) || err != nil {
			break
		}
	}
	return executed
}

// writeBatch stores cells the caller executed (see execute) in one store
// write. On success their damaged marks clear. On failure every cell
// counts one store error and keeps its mark: a cache-write failure (full
// disk, read-only directory, unreachable remote) is not an execution
// failure, and the result stays served from memory.
func (c *CellCache) writeBatch(cells []*cellState) {
	if c.store == nil || len(cells) == 0 {
		return
	}
	err := storeCells(c.store, cells)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.stats.StoreErrors += int64(len(cells))
		return
	}
	for _, st := range cells {
		delete(c.damaged, st.key.hash)
	}
}
