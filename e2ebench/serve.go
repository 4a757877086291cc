package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"abftckpt/internal/model"
	"abftckpt/internal/scenario"
	"abftckpt/internal/server"
)

// serveMix is the serve_cells traffic mix (workloads/serve_cells.json).
type serveMix struct {
	Notes             string  `json:"notes"`
	Seed              uint64  `json:"seed"`
	RateRPS           float64 `json:"rate_rps"`
	HotCells          int     `json:"hot_cells"`
	HotShare          float64 `json:"hot_share"`
	HotSimReps        int     `json:"hot_sim_reps"`
	ColdSimReps       int     `json:"cold_sim_reps"`
	SLOP99MS          float64 `json:"slo_p99_ms"`
	StepSeconds       float64 `json:"step_seconds"`
	ThroughputSeconds float64 `json:"throughput_seconds"`
	WarmupSeconds     float64 `json:"warmup_seconds"`
	VerifyEvery       int     `json:"verify_every"`
}

// loadServeMix reads the traffic mix; the run's seed replaces the file's
// unless it is 0.
func loadServeMix(cfg *config) (serveMix, error) {
	var mix serveMix
	data, err := files.ReadFile("workloads/serve_cells.json")
	if err != nil {
		return mix, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mix); err != nil {
		return mix, fmt.Errorf("serve_cells.json: %w", err)
	}
	if cfg.seed != 0 {
		mix.Seed = cfg.seed
	}
	return mix, nil
}

// protocols are the protocol names cells draw from.
var protocols = []string{scenario.ProtoPure, scenario.ProtoBi, scenario.ProtoAbft}

// fig7 draws a Figure 7 platform point: MTBF 1 to 4 hours, any alpha.
func fig7(rng *rand.Rand) *model.Params {
	p := model.Fig7Params((60+180*rng.Float64())*model.Minute, rng.Float64())
	return &p
}

// hotCells returns the fixed hot set: model, periods and small simulation
// cells in turn.
func hotCells(mix serveMix) []scenario.CellSpec {
	rng := rand.New(rand.NewPCG(mix.Seed, 1))
	cells := make([]scenario.CellSpec, mix.HotCells)
	for i := range cells {
		proto := protocols[rng.IntN(len(protocols))]
		switch i % 3 {
		case 0:
			cells[i] = scenario.CellSpec{Op: scenario.OpModel, Protocol: proto, Params: fig7(rng)}
		case 1:
			c := (1 + 19*rng.Float64()) * model.Minute
			mu := (1 + 23*rng.Float64()) * model.Hour
			cells[i] = scenario.CellSpec{Op: scenario.OpPeriods, Probe: &scenario.PeriodsProbe{C: c, Mu: mu, D: model.Minute, R: c}}
		default:
			cells[i] = scenario.CellSpec{Op: scenario.OpSim, Protocol: proto, Params: fig7(rng), Reps: mix.HotSimReps, Seed: rng.Uint64()}
		}
	}
	return cells
}

// coldCell returns the k-th unique cell: model and simulation cells in
// turn, each drawn from its own stream so any k is cheap to produce.
func coldCell(mix serveMix, k int) scenario.CellSpec {
	rng := rand.New(rand.NewPCG(mix.Seed, 1<<32+uint64(k)))
	proto := protocols[rng.IntN(len(protocols))]
	if k%2 == 0 {
		return scenario.CellSpec{Op: scenario.OpModel, Protocol: proto, Params: fig7(rng)}
	}
	return scenario.CellSpec{Op: scenario.OpSim, Protocol: proto, Params: fig7(rng), Reps: mix.ColdSimReps, Seed: rng.Uint64()}
}

// hashProbeUS times CellSpec.Hash over the serve workload's hot cells and
// returns the mean microseconds per hash.
func hashProbeUS(cfg *config) float64 {
	mix, err := loadServeMix(cfg)
	if err != nil {
		return 0
	}
	cells := hotCells(mix)
	n := 0
	t := time.Now()
	for time.Since(t) < 50*time.Millisecond {
		for i := range cells {
			_ = cells[i].Hash()
		}
		n += len(cells)
	}
	return float64(time.Since(t).Microseconds()) / float64(n)
}

func prepareServeCells(cfg *config) (func() (instance, error), error) {
	mix, err := loadServeMix(cfg)
	if err != nil {
		return nil, err
	}
	// Reference: every hot cell executed directly, in compact JSON, the
	// form responses are compared in.
	hot := hotCells(mix)
	want := make([][]byte, len(hot))
	for i, c := range hot {
		res, err := c.Execute()
		if err != nil {
			return nil, fmt.Errorf("hot cell %d: %w", i, err)
		}
		if want[i], err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	return func() (instance, error) {
		in, err := setupServe(cfg, want)
		if err != nil {
			return nil, err
		}
		return in, nil
	}, nil
}

// serveInst is an in-process server behind httptest and its clients.
type serveInst struct {
	cfg      *config
	mix      serveMix
	hot      []scenario.CellSpec
	hotBody  [][]byte
	hotHash  []string
	hotWant  [][]byte
	loadMS   float64
	srv      *server.Server
	ts       *httptest.Server
	client   *http.Client
	pick     *rand.Rand // hot-or-cold draws of the schedule
	nextCold int
}

// planned is what one scheduled request carries, for verification.
type planned struct {
	hot  int                // index into the hot set, -1 for a cold cell
	cold *scenario.CellSpec // the cold cell
	n    int                // the cold cell's ordinal
	hash string
}

func setupServe(cfg *config, want [][]byte) (*serveInst, error) {
	t := time.Now()
	mix, err := loadServeMix(cfg)
	if err != nil {
		return nil, err
	}
	in := &serveInst{cfg: cfg, mix: mix, hot: hotCells(mix), hotWant: want, pick: rand.New(rand.NewPCG(mix.Seed, 2))}
	for _, c := range in.hot {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		body, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		in.hotBody = append(in.hotBody, body)
		in.hotHash = append(in.hotHash, c.Hash())
	}
	in.loadMS = ms(time.Since(t))

	in.srv = server.New(server.Config{Workers: cfg.par})
	in.ts = httptest.NewServer(in.srv.Handler())
	in.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: cfg.par, MaxIdleConnsPerHost: cfg.par, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	for i, body := range in.hotBody {
		status, _, err := post(in.client, in.url(), body)
		if err != nil || status != http.StatusOK {
			in.close()
			return nil, fmt.Errorf("preload hot cell %d: status %d: %v", i, status, err)
		}
	}
	reqs, _, err := in.atRate(mix.RateRPS, in.warmup())
	if err != nil {
		in.close()
		return nil, err
	}
	openLoop(in.client, in.url(), reqs, cfg.par, limits{}, nil)
	return in, nil
}

func (in *serveInst) url() string { return in.ts.URL + "/v1/cells" }

func (in *serveInst) close() {
	in.client.CloseIdleConnections()
	in.ts.Close()
}

// The warm-up, probe and throughput phases scale with the timed phase so
// short test runs stay short.
func (in *serveInst) warmup() time.Duration {
	return min(seconds(in.mix.WarmupSeconds), in.cfg.seconds/4)
}

func (in *serveInst) step() time.Duration {
	return max(min(seconds(in.mix.StepSeconds), in.cfg.seconds/4), 100*time.Millisecond)
}

func (in *serveInst) throughputPhase() time.Duration {
	return max(min(seconds(in.mix.ThroughputSeconds), in.cfg.seconds/4), 100*time.Millisecond)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// schedule builds n requests, request i due at i*interval (all at once
// for interval 0): a hot cell with probability hot_share, otherwise the
// next unique cold cell.
func (in *serveInst) schedule(n int, interval time.Duration) ([]request, []planned, error) {
	reqs := make([]request, n)
	plan := make([]planned, n)
	for i := range reqs {
		reqs[i].due = time.Duration(i) * interval
		if in.pick.Float64() < in.mix.HotShare {
			h := in.pick.IntN(len(in.hot))
			reqs[i].body, plan[i] = in.hotBody[h], planned{hot: h, hash: in.hotHash[h]}
			continue
		}
		c := coldCell(in.mix, in.nextCold)
		body, err := json.Marshal(c)
		if err != nil {
			return nil, nil, err
		}
		reqs[i].body, plan[i] = body, planned{hot: -1, cold: &c, n: in.nextCold, hash: c.Hash()}
		in.nextCold++
	}
	return reqs, plan, nil
}

// atRate schedules d of requests at a fixed rate.
func (in *serveInst) atRate(rate float64, d time.Duration) ([]request, []planned, error) {
	return in.schedule(int(rate*d.Seconds()), time.Duration(float64(time.Second)/rate))
}

// cellResponse is the part of the POST /v1/cells response body the
// benchmark checks.
type cellResponse struct {
	Cell   string          `json:"cell"`
	Result json.RawMessage `json:"result"`
}

// verifier checks the responses of a phase as they arrive: every
// answered cell carries the requested cell's hash, and every hot result
// equals the direct execution. Every verify_every-th cold result is kept
// and compared with a fresh direct execution once the phase is over, so
// no execution competes with the server during the phase.
type verifier struct {
	in   *serveInst
	plan []planned

	mu      sync.Mutex
	wrong   int
	samples map[int][]byte // compact result by request index
}

func (v *verifier) check(i, status int, body []byte) {
	if status != http.StatusOK {
		return // counted as failed by summarize
	}
	var resp cellResponse
	var got bytes.Buffer
	ok := json.Unmarshal(body, &resp) == nil && resp.Cell == v.plan[i].hash && json.Compact(&got, resp.Result) == nil
	p := v.plan[i]
	if ok && p.hot >= 0 {
		ok = bytes.Equal(got.Bytes(), v.in.hotWant[p.hot])
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	switch {
	case !ok:
		v.wrong++
	case p.hot < 0 && p.n%max(v.in.mix.VerifyEvery, 1) == 0:
		v.samples[i] = got.Bytes()
	}
}

// finish re-executes the kept cold cells and returns the number of wrong
// responses.
func (v *verifier) finish() int {
	for i, got := range v.samples {
		res, err := v.plan[i].cold.Execute()
		var want []byte
		if err == nil {
			want, err = json.Marshal(res)
		}
		if err != nil || !bytes.Equal(got, want) {
			v.wrong++
		}
	}
	return v.wrong
}

// phase sends a schedule, verifies the responses and counts them; it
// returns the outcomes and their statistics.
func (in *serveInst) phase(r *report, label string, reqs []request, plan []planned, lim limits) ([]outcome, loadStats) {
	v := &verifier{in: in, plan: plan, samples: map[int][]byte{}}
	outs := openLoop(in.client, in.url(), reqs, in.cfg.par, lim, v.check)
	st := summarize(outs)
	wrong := v.finish()
	r.attempted += st.sent
	if st.failed+wrong > 0 {
		r.failed += st.failed + wrong
		fmt.Fprintf(os.Stderr, "e2ebench: serve_cells %s: %d failed, %d wrong of %d\n", label, st.failed, wrong, st.sent)
	}
	return outs, st
}

// maxServeRPS bounds the throughput phase's schedule; it is far above
// what two connections reach.
const maxServeRPS = 25000

// measure runs the fixed-rate phase: latency from due time. A traced run
// adds the throughput phase, in which every request is due at once so
// both connections stay busy and completions per second are the server's
// throughput, and then the SLO search.
func (in *serveInst) measure(r *report) error {
	rate := in.mix.RateRPS
	reqs, plan, err := in.atRate(rate, in.cfg.seconds)
	if err != nil {
		return err
	}
	cache0 := in.srv.Cache().Stats()
	a0, g0 := heapCounters()
	c0, t0 := cpuTime(), time.Now()
	outs, fixed := in.phase(r, "fixed rate", reqs, plan, limits{})
	wall, cpu := time.Since(t0), cpuTime()-c0
	a1, g1 := heapCounters()
	r.values["latency_ms_p10"] = windowed(outs, time.Second, 0.10)
	r.values["latency_ms_p50"] = windowed(outs, time.Second, 0.50)
	if !in.cfg.trace {
		return nil
	}
	r.values["tail.latency_ms_p90"] = windowed(outs, time.Second, 0.90)
	r.values["tail.latency_ms_p99"] = windowed(outs, time.Second, 0.99)
	if err := in.layers(r, outs, fixed, cache0, wall, cpu, float64(a1-a0), float64(g1-g0)); err != nil {
		return err
	}

	d := in.throughputPhase()
	if reqs, plan, err = in.schedule(int(maxServeRPS*d.Seconds()), 0); err != nil {
		return err
	}
	_, sat := in.phase(r, "throughput", reqs, plan, limits{deadline: d})
	r.values["load.throughput_rps"] = sat.achievedRPS
	best, err := in.search(r, rate, fixed, sat.achievedRPS)
	if err != nil {
		return err
	}
	r.values["load.max_rps_slo"] = best
	return nil
}

// search finds the highest offered rate whose p99 latency meets the SLO
// with zero errors, by geometric bisection between the fixed rate and
// the measured throughput, one step per probe, to 5%. It returns the
// achieved rate of the highest passing probe.
func (in *serveInst) search(r *report, rate float64, fixed loadStats, throughput float64) (float64, error) {
	slo := in.mix.SLOP99MS
	pass := func(st loadStats) bool { return st.failed == 0 && st.p99 <= slo }
	lo, hi, best := 0.0, throughput, 0.0
	if pass(fixed) {
		lo, best = rate, fixed.achievedRPS
	}
	for k := 0; k < max(2, int(in.cfg.seconds/in.step())); k++ {
		probe := hi / 2
		switch {
		case lo > 0 && hi/lo <= 1.05:
			return best, nil
		case lo > 0:
			probe = math.Sqrt(lo * hi)
		}
		reqs, plan, err := in.atRate(probe, in.step())
		if err != nil {
			return 0, err
		}
		lim := limits{maxMisses: int(math.Ceil(0.01 * float64(len(reqs)))), slo: seconds(slo / 1e3)}
		_, st := in.phase(r, "slo probe", reqs, plan, lim)
		if pass(st) {
			lo, best = probe, st.achievedRPS
		} else {
			hi = probe
		}
	}
	return best, nil
}

// layers records the per-layer metrics of the fixed-rate phase and writes
// its trace file.
func (in *serveInst) layers(r *report, outs []outcome, st loadStats, cache0 scenario.CacheStats, wall, cpu time.Duration, allocBytes, gcCycles float64) error {
	n := float64(max(st.sent, 1))
	cache := in.srv.Cache().Stats()
	r.values["cache.mem_hits"] = float64(cache.MemHits-cache0.MemHits) / n
	r.values["cache.executed"] = float64(cache.Executed-cache0.Executed) / n
	r.values["cache.coalesced"] = float64(cache.Coalesced-cache0.Coalesced) / n
	r.values["cache.disk_reads"] = float64(cache.DiskReads-cache0.DiskReads) / n
	r.values["cache.corrupt"] = float64(cache.CorruptEntries-cache0.CorruptEntries) / n
	for _, t := range in.srv.Metrics().TierSummaries() {
		switch t.Tier {
		case string(scenario.TierMem):
			r.values["server.cells_ms_p50_mem"], r.values["server.cells_ms_p99_mem"] = t.P50MS, t.P99MS
		case string(scenario.TierExec):
			r.values["server.cells_ms_p50_exec"], r.values["server.cells_ms_p99_exec"] = t.P50MS, t.P99MS
		}
	}
	for _, e := range in.srv.Metrics().EndpointSummaries() {
		if e.Endpoint == "cells" {
			r.values["server.queue_wait_ms_avg"] = e.AvgQueueWaitMS
			r.values["server.rejected"] = float64(e.Rejected)
		}
	}
	r.values["load.lateness_ms_p99"] = st.lateP99
	r.values["load.achieved_rps"] = st.achievedRPS
	r.values["runtime.alloc_mb_per_run"] = allocBytes / n / (1 << 20)
	r.values["runtime.gc_cycles_per_run"] = gcCycles / n
	r.values["runtime.cpu_util"] = cpu.Seconds() / (wall.Seconds() * float64(in.cfg.par))
	r.values["scenario.load_ms"] = in.loadMS
	r.values["scenario.hash_us"] = hashProbeUS(in.cfg)

	// Spans: each request from its due time, with the HTTP exchange as
	// its child; coverage is the share of latency spent after the send.
	log := newSpanLog()
	log.record(true, 0)
	var total, exchange time.Duration
	for i, o := range outs {
		if !o.sent {
			continue
		}
		total += o.latency
		exchange += o.due + o.latency - o.sendAt
		if i < 2000 {
			log.record(true, i)
			id := log.add("request", "requests", int64(o.due), int64(o.due+o.latency), 0, map[string]any{"status": o.status})
			log.add("http", "requests", int64(o.sendAt), int64(o.due+o.latency), id, nil)
		}
	}
	if total > 0 {
		r.values["trace.coverage"] = exchange.Seconds() / total.Seconds()
	}
	return log.writeChrome(in.cfg.traceOut)
}
