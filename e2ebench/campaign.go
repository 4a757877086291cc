package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"abftckpt/internal/scenario"
	"abftckpt/internal/store"
)

// The workload inputs are frozen in the binary: paper.json and
// quickstart.json are verbatim copies of examples/campaigns/, so later
// edits there do not move the benchmark.
//
//go:embed workloads testdata
var files embed.FS

// withSeed returns the campaign source with the top-level seed and every
// scenario-level seed set to seed (0 returns src unchanged). It edits the
// JSON, not the parsed campaign, so it depends only on the file format.
func withSeed(src []byte, seed uint64) ([]byte, error) {
	if seed == 0 {
		return src, nil
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(src, &doc); err != nil {
		return nil, err
	}
	var scens []map[string]json.RawMessage
	if err := json.Unmarshal(doc["scenarios"], &scens); err != nil {
		return nil, err
	}
	s := json.RawMessage(fmt.Sprint(seed))
	doc["seed"] = s
	for _, sc := range scens {
		if _, ok := sc["seed"]; ok {
			sc["seed"] = s
		}
	}
	var err error
	if doc["scenarios"], err = json.Marshal(scens); err != nil {
		return nil, err
	}
	return json.Marshal(doc)
}

// campaignRef is a campaign's correctness reference, built outside the
// timed set-up.
type campaignRef struct {
	src     []byte            // campaign source with the run's seed
	names   []string          // artifact names in campaign order
	csv     map[string][]byte // reference CSV bytes by artifact name
	digests map[string]string // committed SHA-256 per artifact (default seeds only)
	unique  int               // unique cells of the campaign
	runs    map[string]int    // simulation replicas per cell hash
}

// prepareRef loads a workload campaign and runs it the plainest way the
// engine offers: one worker, cohorts off, a memory-only cache, and every
// cell executed by CellSpec.Execute through the ExecBatch hook. At the
// default seeds the reference must also match the committed digests.
func prepareRef(cfg *config, file string) (*campaignRef, error) {
	raw, err := files.ReadFile("workloads/" + file)
	if err != nil {
		return nil, err
	}
	ref := &campaignRef{runs: map[string]int{}}
	if ref.src, err = withSeed(raw, cfg.seed); err != nil {
		return nil, fmt.Errorf("%s: seed: %w", file, err)
	}
	c, err := scenario.Load(bytes.NewReader(ref.src))
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	r := scenario.Runner{
		Cache:          scenario.NewCellCacheStore(nil, 0),
		Workers:        1,
		DisableCohorts: true,
		ExecBatch: func(specs []scenario.CellSpec) ([]scenario.CellResult, error) {
			out := make([]scenario.CellResult, len(specs))
			for i, s := range specs {
				res, err := s.Execute()
				if err != nil {
					return nil, err
				}
				out[i] = res
				if res.Sim != nil {
					mu.Lock()
					ref.runs[s.Hash()] = res.Sim.Runs
					mu.Unlock()
				}
			}
			return out, nil
		},
	}
	rep, err := r.Run(c)
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", file, err)
	}
	ref.unique = rep.Unique
	if ref.names, ref.csv, err = renderArtifacts(rep.Artifacts); err != nil {
		return nil, err
	}
	if cfg.seed == 0 {
		if ref.digests, err = loadDigests(digestFile(file)); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// digestFile is the testdata file holding a campaign's artifact digests.
func digestFile(campaignFile string) string {
	return strings.TrimSuffix(campaignFile, ".json") + ".sha256"
}

// loadDigests reads "<sha256>  <artifact>.csv" lines.
func loadDigests(name string) (map[string]string, error) {
	data, err := files.ReadFile("testdata/" + name)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		sum, file, ok := strings.Cut(strings.TrimSpace(sc.Text()), "  ")
		if !ok {
			continue
		}
		out[strings.TrimSuffix(file, ".csv")] = sum
	}
	return out, sc.Err()
}

// renderArtifacts renders every artifact's CSV, in campaign order.
func renderArtifacts(arts []scenario.Artifact) ([]string, map[string][]byte, error) {
	names := make([]string, 0, len(arts))
	csv := make(map[string][]byte, len(arts))
	for i := range arts {
		var b bytes.Buffer
		if err := arts[i].WriteCSV(&b); err != nil {
			return nil, nil, fmt.Errorf("render %s: %w", arts[i].Name, err)
		}
		names = append(names, arts[i].Name)
		csv[arts[i].Name] = b.Bytes()
	}
	return names, csv, nil
}

// check compares one operation's artifacts with the reference, byte for
// byte, and with the committed digests; it returns the mismatches.
func (ref *campaignRef) check(names []string, csv map[string][]byte) []string {
	var bad []string
	if strings.Join(names, ",") != strings.Join(ref.names, ",") {
		bad = append(bad, fmt.Sprintf("artifacts %v, want %v", names, ref.names))
	}
	for _, n := range ref.names {
		got, ok := csv[n]
		if !ok {
			continue
		}
		if !bytes.Equal(got, ref.csv[n]) {
			bad = append(bad, n+": differs from the reference run")
		}
		if ref.digests != nil {
			sum := sha256.Sum256(got)
			if hex.EncodeToString(sum[:]) != ref.digests[n] {
				bad = append(bad, n+": differs from the committed digest")
			}
		}
	}
	if ref.digests != nil && len(ref.digests) != len(ref.names) {
		bad = append(bad, fmt.Sprintf("%d committed digests for %d artifacts", len(ref.digests), len(ref.names)))
	}
	return bad
}

// storeMode selects the cache stack of a local campaign workload. The
// second tier is a checksummed memory store, not store.Disk: on a file
// system that discards freed blocks, creating files costs two to three
// times more for minutes after other files were deleted, so disk timings
// would measure the deletion history of earlier runs rather than the
// engine.
type storeMode int

const (
	freshStore  storeMode = iota // a new, empty store per iteration
	filledStore                  // one store filled during set-up
	memoryOnly                   // no second tier
)

func preparePaperCold(cfg *config) (func() (instance, error), error) {
	return prepareLocal(cfg, "paper.json", freshStore)
}

func preparePaperWarm(cfg *config) (func() (instance, error), error) {
	return prepareLocal(cfg, "paper.json", filledStore)
}

func prepareSimCohort(cfg *config) (func() (instance, error), error) {
	return prepareLocal(cfg, "sim_cohort.json", memoryOnly)
}

func prepareLocal(cfg *config, file string, mode storeMode) (func() (instance, error), error) {
	ref, err := prepareRef(cfg, file)
	if err != nil {
		return nil, err
	}
	return func() (instance, error) {
		in, err := setupLocal(cfg, ref, mode)
		if err != nil {
			return nil, err
		}
		return in, nil
	}, nil
}

// localCampaign runs a campaign in-process through scenario.Runner.
type localCampaign struct {
	cfg      *config
	ref      *campaignRef
	mode     storeMode
	campaign *scenario.Campaign
	loadMS   float64
	filled   *store.Memory // the filledStore mode's store
	log      *spanLog
	acc      *layerAcc
	// tamper, when set, edits each operation's artifacts before they are
	// checked (tests use it to prove that a wrong byte is caught).
	tamper func(csv map[string][]byte)
}

func setupLocal(cfg *config, ref *campaignRef, mode storeMode) (*localCampaign, error) {
	in := &localCampaign{cfg: cfg, ref: ref, mode: mode, log: newSpanLog(), acc: newLayerAcc()}
	t := time.Now()
	c, err := scenario.Load(bytes.NewReader(ref.src))
	if err != nil {
		return nil, err
	}
	in.campaign, in.loadMS = c, ms(time.Since(t))
	if mode == filledStore {
		in.filled = store.NewMemory()
		fill := scenario.Runner{Cache: scenario.NewCellCacheStore(store.WithChecksum(in.filled), 0), Workers: cfg.par}
		if _, err := fill.Run(c); err != nil {
			return nil, fmt.Errorf("fill store: %w", err)
		}
	}
	if _, _, err := in.iterate(-1, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, nil
}

func (in *localCampaign) close() {}

// newCache builds one iteration's cache: a fresh LRU over the mode's
// store. Traced iterations put a timing wrapper on each side of the
// checksum layer.
func (in *localCampaign) newCache(traced bool) (*scenario.CellCache, *storeCounters, *storeCounters) {
	var rs store.ResultStore
	switch in.mode {
	case memoryOnly:
		return scenario.NewCellCacheStore(nil, 0), nil, nil
	case freshStore:
		rs = store.NewMemory()
	case filledStore:
		rs = in.filled
	}
	if !traced {
		return scenario.NewCellCacheStore(store.WithChecksum(rs), 0), nil, nil
	}
	inner, outer := &storeCounters{}, &storeCounters{}
	rs = &timedStore{inner: rs, c: inner, log: in.log, lane: "store"}
	rs = &timedStore{inner: store.WithChecksum(rs), c: outer, log: in.log}
	return scenario.NewCellCacheStore(rs, 0), inner, outer
}

// iterate runs the campaign once. The operation's time runs from the
// Run call to the last artifact's CSV rendered.
func (in *localCampaign) iterate(i int, traced bool) (time.Duration, []string, error) {
	cache, inner, outer := in.newCache(traced)
	r := scenario.Runner{Cache: cache, Workers: in.cfg.par}
	var rt *runTrace
	if traced {
		rt = &runTrace{log: in.log}
		rt.attach(&r, in.ref.unique)
	}
	t := time.Now()
	start := in.log.now()
	rep, err := r.Run(in.campaign)
	end := in.log.now()
	var names []string
	var csv map[string][]byte
	if err == nil {
		names, csv, err = renderArtifacts(rep.Artifacts)
	}
	d := time.Since(t)
	rendered := in.log.now()
	if err != nil {
		return d, nil, err
	}
	if traced {
		rt.start, rt.end, rt.rendered = start, end, rendered
		in.accumulate(rt, rep, cache.Stats(), inner, outer, csv)
	}
	if in.tamper != nil {
		in.tamper(csv)
	}
	return d, in.ref.check(names, csv), nil
}

// accumulate folds one traced iteration into the per-layer sums.
func (in *localCampaign) accumulate(rt *runTrace, rep *scenario.Report, st scenario.CacheStats, inner, outer *storeCounters, csv map[string][]byte) {
	a := in.acc
	rt.analyze(in.cfg.par, a, in.ref.runs)
	a.add("cache.mem_hits", float64(st.MemHits))
	a.add("cache.disk_reads", float64(st.DiskReads))
	a.add("cache.executed", float64(st.Executed))
	a.add("cache.coalesced", float64(st.Coalesced))
	a.add("cache.corrupt", float64(st.CorruptEntries))
	a.add("sim.cohorts", float64(rep.Cohorts))
	a.add("sim.cohort_cells", float64(rep.CohortCells))
	for _, b := range csv {
		a.add("scenario.artifact_bytes", float64(len(b)))
	}
	if inner != nil {
		addStore(a, inner)
		a.add("store.checksum_ms", ms(time.Duration(outer.nanos()-inner.nanos())))
	}
	a.n++
}

// addStore folds one iteration's raw store counters into the sums.
func addStore(a *layerAcc, c *storeCounters) {
	a.add("store.get_n", float64(c.getN.Load()))
	a.add("store.get_ms", ms(time.Duration(c.getNanos.Load())))
	a.add("store.get_bytes", float64(c.getBytes.Load()))
	a.add("store.put_n", float64(c.putN.Load()))
	a.add("store.put_ms", ms(time.Duration(c.putNanos.Load())))
	a.add("store.put_bytes", float64(c.putBytes.Load()))
	a.add("store.batch_n", float64(c.batchN.Load()))
}

func (in *localCampaign) measure(r *report) error {
	measureIterations(in.cfg, r, in.log, in.iterate)
	if !in.cfg.trace {
		return nil
	}
	in.acc.report(r)
	r.values["scenario.load_ms"] = in.loadMS
	return in.log.writeChrome(in.cfg.traceOut)
}
