package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"abftckpt/internal/store"
)

// warmRun is everything a campaign run shows to its caller.
type warmRun struct {
	report    Report // Artifacts cleared; compared through csv
	csv       map[string][]byte
	events    []CellEvent
	scenarios []ScenarioEvent
	stats     CacheStats
}

// runWarm runs c with a fresh cache (cold memory tier) over rs and records
// what the caller sees.
func runWarm(t *testing.T, c *Campaign, rs store.ResultStore, workers int) warmRun {
	t.Helper()
	var out warmRun
	var mu sync.Mutex
	cache := NewCellCacheStore(rs, 0)
	r := Runner{
		Cache:   cache,
		Workers: workers,
		OnEvent: func(ev CellEvent) {
			mu.Lock()
			defer mu.Unlock()
			out.events = append(out.events, ev)
		},
		OnScenario: func(ev ScenarioEvent) {
			mu.Lock()
			defer mu.Unlock()
			out.scenarios = append(out.scenarios, ev)
		},
	}
	rep, err := r.Run(c)
	if err != nil {
		t.Fatalf("workers %d: %v", workers, err)
	}
	out.csv = artifactCSVs(t, rep)
	out.report = *rep
	out.report.Artifacts = nil
	out.stats = cache.Stats()
	return out
}

// filledStore runs c once into a fresh checksummed memory store and returns
// the raw store under the checksum layer.
func filledStore(t *testing.T, c *Campaign) *store.Memory {
	t.Helper()
	mem := store.NewMemory()
	fill := Runner{Cache: NewCellCacheStore(store.WithChecksum(mem), 0), Workers: 2}
	if _, err := fill.Run(c); err != nil {
		t.Fatal(err)
	}
	return mem
}

// TestWarmPreloadWorkerInvariant pins the parallel preload: warm runs over
// one filled store at 1, 2 and 8 workers produce byte-identical artifacts,
// equal report counters and identical event sequences, and each reads
// every unique cell from the store exactly once.
func TestWarmPreloadWorkerInvariant(t *testing.T) {
	c := testCampaign()
	mem := filledStore(t, c)
	base := runWarm(t, c, store.WithChecksum(mem), 1)
	if base.report.Executed != 0 || base.report.CacheHits != base.report.Unique {
		t.Fatalf("warm run: executed %d, hits %d of %d unique", base.report.Executed, base.report.CacheHits, base.report.Unique)
	}
	if base.stats.DiskReads != int64(base.report.Unique) || base.stats.DiskHits != int64(base.report.Unique) {
		t.Fatalf("warm run stats %+v, want %d disk reads and hits", base.stats, base.report.Unique)
	}
	for _, workers := range []int{2, 8} {
		got := runWarm(t, c, store.WithChecksum(mem), workers)
		if !reflect.DeepEqual(got.report, base.report) {
			t.Errorf("workers %d: report %+v, want %+v", workers, got.report, base.report)
		}
		if !reflect.DeepEqual(got.csv, base.csv) {
			t.Errorf("workers %d: artifacts differ from the 1-worker run", workers)
		}
		if !reflect.DeepEqual(got.events, base.events) {
			t.Errorf("workers %d: OnEvent sequence differs from the 1-worker run", workers)
		}
		if !reflect.DeepEqual(got.scenarios, base.scenarios) {
			t.Errorf("workers %d: OnScenario sequence differs from the 1-worker run", workers)
		}
		if got.stats != base.stats {
			t.Errorf("workers %d: cache stats %+v, want %+v", workers, got.stats, base.stats)
		}
	}
}

// TestParallelPreloadCountsCorruptEntry flips one byte of one stored entry:
// a parallel preload detects it through the checksum, counts it, the cell
// re-executes once and the artifacts still match, and the re-execution
// heals the entry for the next run.
func TestParallelPreloadCountsCorruptEntry(t *testing.T) {
	c := testCampaign()
	mem := filledStore(t, c)
	clean := runWarm(t, c, store.WithChecksum(mem), 8)

	exs, err := c.expandAll(1)
	if err != nil {
		t.Fatal(err)
	}
	victim := exs[0].cells[0].Hash()
	raw, err := mem.Get(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04
	if err := mem.Put(victim, raw); err != nil {
		t.Fatal(err)
	}

	got := runWarm(t, c, store.WithChecksum(mem), 8)
	if got.stats.CorruptEntries != 1 {
		t.Errorf("CorruptEntries = %d, want 1", got.stats.CorruptEntries)
	}
	if got.report.Executed != 1 || got.report.CacheHits != got.report.Unique-1 {
		t.Errorf("executed %d, hits %d of %d unique; want exactly one re-execution",
			got.report.Executed, got.report.CacheHits, got.report.Unique)
	}
	if !reflect.DeepEqual(got.csv, clean.csv) {
		t.Error("artifacts after the corrupt entry differ from the clean run")
	}

	healed := runWarm(t, c, store.WithChecksum(mem), 8)
	if healed.stats.CorruptEntries != 0 || healed.report.Executed != 0 {
		t.Errorf("after healing: corrupt %d, executed %d; want 0 and 0",
			healed.stats.CorruptEntries, healed.report.Executed)
	}
}

// TestCellHashesPinned pins CellSpec.Hash over every cell reference of the
// example campaigns: a change to the canonical encoding or to key
// derivation would silently orphan every existing cache. Between them the
// campaigns reach every cell op.
func TestCellHashesPinned(t *testing.T) {
	for _, tc := range []struct {
		file string
		refs int
		want string
	}{
		{"paper.json", 4000, "821a4c22052ef9f8416377c97dcb63054d9534512206d4f77d21f5c7ebada175"},
		{"quickstart.json", 238, "a1256cd4f9efdaf837e4ae7878f3eeaed68acba38741c2cad842306863f509f6"},
		{"silent.json", 2280, "5370035ea65fb4508e618d4acb022f689c5ed53ed5ea1336bfd108ea8e51af22"},
		{"multilevel.json", 150, "22f076cef6da62dac4dd5b72c9f2c7b01fcd13b223ae4258cce48b4f2934faf1"},
	} {
		f, err := os.Open(filepath.Join("..", "..", "examples", "campaigns", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Load(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		exs, err := c.expandAll(1)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		h := sha256.New()
		refs := 0
		for _, ex := range exs {
			for _, cell := range ex.cells {
				if k := cell.key(); k.hash != cell.Hash() || !bytes.Equal(k.canonical, cell.Canonical()) {
					t.Fatalf("%s: key() disagrees with Hash/Canonical for %s", tc.file, cell.Canonical())
				}
				h.Write([]byte(cell.Hash() + "\n"))
				refs++
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); refs != tc.refs || got != tc.want {
			t.Errorf("%s: %d references hash to digest %s, want %d and %s", tc.file, refs, got, tc.refs, tc.want)
		}
	}
}

// TestCacheEntryBytesPinned pins the stored entry bytes: the bench cells'
// executed results, a silent-model, a two-level-model and an adaptive sim
// entry, and a result full of special and boundary floats must encode
// exactly as the committed files (recorded with encoding/json as the
// encoder), and decode back.
func TestCacheEntryBytesPinned(t *testing.T) {
	executed := func(cell CellSpec, elapsed float64) func() (CellSpec, CellResult, float64) {
		return func() (CellSpec, CellResult, float64) {
			res, err := cell.Execute()
			if err != nil {
				t.Fatal(err)
			}
			return cell, res, elapsed
		}
	}
	entries := map[string]func() (CellSpec, CellResult, float64){}
	for op, cell := range BenchCells() {
		entries[op] = executed(cell, 1.25)
	}
	entries["silent_model"] = executed(CellSpec{Op: OpSilentModel, Silent: silentCell("forward")}, 0.5)
	entries["ml_model"] = executed(CellSpec{Op: OpMLModel, MultiLevel: mlCellParams()}, 3)
	adaptive := BenchCells()[OpSim]
	adaptive.Reps = 256
	adaptive.Dist = &DistSpec{Name: DistExponential}
	adaptive.Precision = &CellPrecision{RelCI: 0.05, Batch: 8, KeepReplicas: true}
	entries["sim_adaptive"] = executed(adaptive, 12.5)
	entries["special"] = func() (CellSpec, CellResult, float64) {
		return BenchCells()[OpSim], CellResult{Sim: &SimCellResult{
			WasteMean: JSONFloat(math.Inf(1)), WasteStdDev: JSONFloat(math.Inf(-1)), WasteCI95: JSONFloat(math.NaN()),
			FaultsMean: 1e-7, TFinalMean: 1e21, WorkMean: JSONFloat(math.Copysign(0, -1)),
			CkptMean: 9.999999999999999e20, LostMean: 1e-6, RecoveryMean: -1.5e-300,
			Runs: 3, Truncated: 1, RepsCap: 8, Stopped: true, Looks: 2, CVActive: true,
			CVVarianceRatio: 5e-324,
			Replicas:        []JSONFloat{math.MaxFloat64, 0.1, 123456789012345678, -2.5e-8},
		}}, 0.001
	}
	for name, entry := range entries {
		spec, res, elapsed := entry()
		want, err := os.ReadFile(filepath.Join("testdata", "cache_entries", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		k := spec.key()
		buf, err := encodeCellEntry(k, res, elapsed)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]byte(nil), buf.Bytes()...)
		putEntryBuf(buf)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: entry bytes\n got %s\nwant %s", name, got, want)
			continue
		}
		back, ok := decodeCellEntry(got, k)
		if !ok {
			t.Errorf("%s: pinned entry does not decode", name)
			continue
		}
		if mustCanonicalResult(t, back) != mustCanonicalResult(t, res) {
			t.Errorf("%s: decoded result differs from the encoded one", name)
		}
	}
}
