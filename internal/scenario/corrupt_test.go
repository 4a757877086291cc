package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCorruptDiskEntryBecomesCountedMiss pins the silent-error loop at
// the cache layer: a bit-flipped disk entry is detected by the checksum,
// counted in CacheStats.CorruptEntries, served as a miss, and the
// re-execution overwrites the damaged entry so the next reader hits.
func TestCorruptDiskEntryBecomesCountedMiss(t *testing.T) {
	dir := t.TempDir()
	spec := CellSpec{Op: OpPeriods, Probe: &PeriodsProbe{C: 60, Mu: 3600, D: 60, R: 60}}

	warm := NewCellCache(dir, 4)
	want, tier, err := warm.GetOrExecute(spec)
	if err != nil || tier != TierExec {
		t.Fatalf("warm execute: tier=%s err=%v", tier, err)
	}
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the stored entry, as media corruption would.
	path := filepath.Join(dir, spec.Hash()[:2], spec.Hash()+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh cache (cold memory tier) must detect the damage: Lookup
	// misses and counts it, GetOrExecute re-executes and heals the entry.
	cold := NewCellCache(dir, 4)
	if _, _, ok := cold.lookup(spec.key()); ok {
		t.Fatal("corrupted entry served as a hit")
	}
	if got := cold.Stats().CorruptEntries; got != 1 {
		t.Fatalf("CorruptEntries = %d, want 1", got)
	}
	res, tier, err := cold.GetOrExecute(spec)
	if err != nil || tier != TierExec {
		t.Fatalf("re-execute after corruption: tier=%s err=%v", tier, err)
	}
	if mustCanonicalResult(t, res) != mustCanonicalResult(t, want) {
		t.Fatalf("re-executed result diverged: %+v vs %+v", res, want)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	// The overwrite healed the store: a third cache hits on disk.
	healed := NewCellCache(dir, 4)
	defer healed.Close()
	if _, tier, ok := healed.lookup(spec.key()); !ok || tier != TierDisk {
		t.Fatalf("healed entry: ok=%v tier=%s", ok, tier)
	}
	if got := healed.Stats().CorruptEntries; got != 0 {
		t.Fatalf("healed cache CorruptEntries = %d, want 0", got)
	}
}
