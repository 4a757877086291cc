package scenario

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"abftckpt/internal/model"
	"abftckpt/internal/store"
)

// mustCanonicalResult renders a CellResult to its canonical JSON, the
// NaN-safe equality used by the cache round-trip properties (±Inf and NaN
// encode as strings, so byte equality survives the IEEE specials).
func mustCanonicalResult(t testing.TB, res CellResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// genCellSpec mints a random valid CellSpec covering every op.
func genCellSpec(r *rand.Rand) CellSpec {
	protos := []string{ProtoPure, ProtoBi, ProtoAbft}
	proto := protos[r.Intn(len(protos))]
	switch r.Intn(4) {
	case 0:
		p := model.Fig7Params((1+10*r.Float64())*model.Hour, r.Float64())
		p.C = 1 + 600*r.Float64()
		return CellSpec{Op: OpModel, Protocol: proto, Params: &p}
	case 1:
		p := model.Fig7Params((1+10*r.Float64())*model.Hour, r.Float64())
		return CellSpec{
			Op: OpSim, Protocol: proto, Params: &p,
			Epochs: 1, Reps: 1 + r.Intn(5), Seed: r.Uint64(),
			Dist: &DistSpec{Name: DistWeibull, Shape: 0.5 + r.Float64()},
		}
	case 2:
		return CellSpec{Op: OpPeriods, Probe: &PeriodsProbe{
			C: 1 + 600*r.Float64(), Mu: (1 + r.Float64()) * model.Hour,
			D: 60 * r.Float64(), R: 60 * r.Float64(),
		}}
	default:
		study := model.Fig8Scenario(model.ScaleConstant)
		study.CkptAtBase = 30 + 60*r.Float64()
		return CellSpec{Op: OpScaling, Protocol: proto, Scaling: &study,
			Nodes: float64(1000 * (1 + r.Intn(1000)))}
	}
}

// perturbCellSpec returns a copy of spec differing in exactly one
// semantically meaningful field, without aliasing spec's pointers.
func perturbCellSpec(spec CellSpec, r *rand.Rand) CellSpec {
	out := spec
	if spec.Params != nil {
		p := *spec.Params
		out.Params = &p
	}
	if spec.Probe != nil {
		p := *spec.Probe
		out.Probe = &p
	}
	if spec.Scaling != nil {
		s := *spec.Scaling
		out.Scaling = &s
	}
	if spec.Dist != nil {
		d := *spec.Dist
		out.Dist = &d
	}
	var muts []func()
	muts = append(muts, func() { out.Seed++ })
	if out.Params != nil {
		muts = append(muts, func() { out.Params.Mu++ })
	}
	if out.Probe != nil {
		muts = append(muts, func() { out.Probe.Mu++ })
	}
	if out.Scaling != nil {
		muts = append(muts, func() { out.Scaling.CkptAtBase++ })
	}
	if out.Op == OpSim {
		muts = append(muts, func() { out.Reps++ })
		muts = append(muts, func() { out.Dist.Shape++ })
	}
	muts[r.Intn(len(muts))]()
	return out
}

// genCellResult mints a random CellResult whose floats include the IEEE
// specials an infeasible protocol legitimately produces.
func genCellResult(r *rand.Rand) CellResult {
	f := func() JSONFloat {
		switch r.Intn(6) {
		case 0:
			return JSONFloat(math.Inf(1))
		case 1:
			return JSONFloat(math.Inf(-1))
		case 2:
			return JSONFloat(math.NaN())
		default:
			return JSONFloat(r.NormFloat64() * 1e3)
		}
	}
	switch r.Intn(3) {
	case 0:
		return CellResult{Model: &ModelCellResult{
			Feasible: r.Intn(2) == 0, TFinal: f(), Waste: f(), FaultFree: f(),
			TFinalG: f(), TFinalL: f(), PeriodG: f(), PeriodL: f(),
			ExpectedFaults: f(), ABFTActive: r.Intn(2) == 0,
		}}
	case 1:
		return CellResult{Sim: &SimCellResult{
			WasteMean: f(), WasteStdDev: f(), WasteCI95: f(), FaultsMean: f(),
			TFinalMean: f(), WorkMean: f(), CkptMean: f(), LostMean: f(),
			RecoveryMean: f(), Runs: r.Intn(1000), Truncated: r.Intn(10),
		}}
	default:
		return CellResult{Periods: &PeriodsCellResult{
			Eq11: f(), Eq11Feasible: r.Intn(2) == 0, Young: f(), Daly: f(),
			WasteEq11: f(), WasteYoung: f(), WasteDaly: f(),
		}}
	}
}

// TestQuickHashDeterministicInjective: the cell content-hash is
// deterministic, and any semantically meaningful perturbation of a spec
// changes the hash (injectivity over differing specs).
func TestQuickHashDeterministicInjective(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := genCellSpec(r)
		if spec.Hash() != spec.Hash() {
			t.Logf("hash not deterministic for %s", spec.Canonical())
			return false
		}
		cp := spec
		if cp.Hash() != spec.Hash() {
			t.Logf("hash differs across copies for %s", spec.Canonical())
			return false
		}
		other := perturbCellSpec(spec, r)
		if other.Hash() == spec.Hash() {
			t.Logf("perturbation kept the hash:\n  %s\n  %s", spec.Canonical(), other.Canonical())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickCacheRoundTrip: results round-trip bit-exactly (in canonical
// JSON form, which pins ±Inf and NaN) through the disk tier and the
// memory tier.
func TestQuickCacheRoundTrip(t *testing.T) {
	// Every store backend must round-trip entries bit-exactly; disk is the
	// historical layout, memory backs tests and Handler, and the cache
	// itself only ever sees the ResultStore interface.
	stores := []store.ResultStore{store.NewDisk(t.TempDir()), store.NewMemory()}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := genCellSpec(r)
		res := genCellResult(r)
		want := mustCanonicalResult(t, res)

		// Store tier, every backend.
		for _, rs := range stores {
			if err := storeCells(rs, []*cellState{{key: spec.key(), result: res, tier: TierExec, elapsedMS: 1}}); err != nil {
				t.Logf("store: %v", err)
				return false
			}
			got, tier, ok := NewCellCacheStore(rs, 4).lookup(spec.key())
			if !ok || tier != TierDisk || mustCanonicalResult(t, got) != want {
				t.Logf("store round-trip mismatch: ok=%v tier=%s", ok, tier)
				return false
			}
		}

		// Memory tier.
		c := NewCellCache("", 4)
		if _, _, err := c.do(spec.key(), func() (CellResult, error) { return res, nil }); err != nil {
			return false
		}
		memGot, tier, ok := c.lookup(spec.key())
		return ok && tier == TierMem && mustCanonicalResult(t, memGot) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickConcurrentLRUNeverStale: under concurrent singleflight access
// with an LRU far smaller than the working set (constant eviction and
// re-execution), every request observes exactly the result belonging to
// its spec — never a stale or cross-wired slot. Run with -race in CI.
func TestQuickConcurrentLRUNeverStale(t *testing.T) {
	specs := make([]CellSpec, 24)
	for i := range specs {
		specs[i] = periodsCell(float64(i+1) * model.Hour)
	}
	prop := func(seed int64) bool {
		cache := NewCellCache("", 4)
		var stale atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed + int64(g)))
				for n := 0; n < 200 && !stale.Load(); n++ {
					i := r.Intn(len(specs))
					res, _, err := cache.do(specs[i].key(), func() (CellResult, error) {
						return modelResult(float64(i)), nil
					})
					if err != nil || res.Model == nil || float64(res.Model.TFinal) != float64(i) {
						stale.Store(true)
					}
				}
			}(g)
		}
		wg.Wait()
		return !stale.Load()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4}); err != nil {
		t.Error(err)
	}
}
