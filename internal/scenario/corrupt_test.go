package scenario

import (
	"bytes"
	"fmt"
	"hash/crc32"
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
	_, want, tier, err := warm.Evaluate(spec)
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
	// misses and counts it, Evaluate re-executes and heals the entry.
	cold := NewCellCache(dir, 4)
	if _, _, ok := cold.lookup(spec.key()); ok {
		t.Fatal("corrupted entry served as a hit")
	}
	if got := cold.Stats().CorruptEntries; got != 1 {
		t.Fatalf("CorruptEntries = %d, want 1", got)
	}
	_, res, tier, err := cold.Evaluate(spec)
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

// TestDecodeRejectsFramedEntry pins how a binary that knows no checksum
// framing reads an entry framed by a newer one (a mixed fleet sharing a
// store, or a rollback): its checksum layer passes the unknown trailer
// through as a legacy value, so the entry decoder must reject it, and
// the cell degrades to a miss and a re-execution, never to a wrong
// result.
func TestDecodeRejectsFramedEntry(t *testing.T) {
	cell := BenchCells()[OpModel]
	k := cell.key()
	res, err := cell.Execute()
	if err != nil {
		t.Fatal(err)
	}
	entry, err := appendCellEntry(nil, k, &res, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeCellEntry(entry, k); !ok {
		t.Fatal("the unframed entry does not decode")
	}
	crc := crc32.Checksum(entry, crc32.MakeTable(crc32.Castagnoli))
	for _, framed := range [][]byte{
		fmt.Appendf(bytes.Clone(entry), "cks2:%08x\n", crc),
		fmt.Appendf(bytes.Clone(entry), "cks1:%016x\n", uint64(crc)),
	} {
		if _, ok := decodeCellEntry(framed, k); ok {
			t.Fatalf("decodeCellEntry accepted %q", framed[len(entry):])
		}
		if _, ok, _ := decodeStored(framed, k); ok {
			t.Fatalf("decodeStored accepted %q", framed[len(entry):])
		}
	}
}
