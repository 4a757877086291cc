package store_test

import (
	"bytes"
	"reflect"
	"testing"

	"abftckpt/internal/scenario"
	"abftckpt/internal/store"
)

// cks1Store writes what a binary framing cks1 trailers wrote: every value
// framed with FNV-64a, straight into the inner store.
type cks1Store struct{ store.ResultStore }

func (s cks1Store) Put(key string, value []byte) error {
	return s.ResultStore.Put(key, store.AppendChecksumCks1(value))
}

func (s cks1Store) PutBatch(items []store.Item) error {
	framed := make([]store.Item, len(items))
	for i, it := range items {
		framed[i] = store.Item{Key: it.Key, Value: store.AppendChecksumCks1(it.Value)}
	}
	return s.ResultStore.PutBatch(framed)
}

// TestCks1CacheStaysWarm pins the upgrade path of the CRC-32C framing: a
// disk cache whose entries carry cks1 trailers is read back by today's
// stack with no cell executed and none counted corrupt, and with the
// artifacts of the run that wrote it.
func TestCks1CacheStaysWarm(t *testing.T) {
	dir := t.TempDir()
	c := scenario.BenchCampaign()
	var hashes []string
	fill, err := (&scenario.Runner{
		Cache:   scenario.NewCellCacheStore(cks1Store{store.NewDisk(dir)}, 0),
		Workers: 2,
		OnEvent: func(ev scenario.CellEvent) { hashes = append(hashes, ev.Hash) },
	}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if fill.Executed == 0 || fill.Executed != fill.Unique {
		t.Fatalf("the fill run executed %d of %d cells", fill.Executed, fill.Unique)
	}
	// Every entry on disk is cks1-framed.
	raw, err := store.NewDisk(dir).GetBatch(hashes)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != fill.Unique {
		t.Fatalf("%d entries on disk, want %d", len(raw), fill.Unique)
	}
	for h, v := range raw {
		if n := len(v); n < 22 || !bytes.HasPrefix(v[n-22:], []byte("cks1:")) {
			t.Fatalf("entry %s is not cks1-framed: %q", h, v)
		}
	}

	cache := scenario.NewCellCache(dir, 0)
	defer cache.Close()
	rerun, err := (&scenario.Runner{Cache: cache, Workers: 2}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); rerun.Executed != 0 || st.CorruptEntries != 0 {
		t.Fatalf("rerun over a cks1 cache: %d executed, %d corrupt, want 0 and 0", rerun.Executed, st.CorruptEntries)
	}
	if !reflect.DeepEqual(rerun.Artifacts, fill.Artifacts) {
		t.Fatal("rerun artifacts differ from the fill run's")
	}
}
