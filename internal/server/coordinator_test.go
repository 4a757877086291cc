package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"abftckpt/internal/scenario"
	"abftckpt/internal/store"
)

// shardCampaign mixes analytic and simulation scenarios, so a sharded run
// exercises singleton shards and a multi-cell trace cohort.
const shardCampaign = `{
  "name": "sharded",
  "seed": 7,
  "reps": 8,
  "scenarios": [
    {"name": "periods", "kind": "periods"},
    {"name": "hm", "kind": "heatmap", "protocol": "abft",
     "mtbf_minutes": {"values": [60, 240]}, "alphas": {"values": [0, 1]}},
    {"name": "sim_pure", "kind": "heatmap", "output": "sim", "protocol": "pure",
     "share_traces": true,
     "mtbf_minutes": {"values": [120]}, "alphas": {"values": [0.5]}},
    {"name": "sim_abft", "kind": "heatmap", "output": "sim", "protocol": "abft",
     "share_traces": true,
     "mtbf_minutes": {"values": [120]}, "alphas": {"values": [0.5]}}
  ]
}`

// startWorker boots one worker server over the given shared store.
func startWorker(t *testing.T, shared store.ResultStore) *httptest.Server {
	t.Helper()
	srv := New(Config{Cache: scenario.NewCellCacheStore(shared, 128), Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// runCampaign submits a campaign, waits for completion, and returns the
// final job status.
func runCampaign(t *testing.T, base, campaign string) jobStatus {
	t.Helper()
	var created struct {
		ID string `json:"id"`
	}
	if code, _ := postJSON(t, base+"/v1/campaigns", campaign, &created); code != http.StatusAccepted {
		t.Fatalf("create: code %d", code)
	}
	return waitDone(t, base, created.ID)
}

// fetchArtifacts downloads every artifact of a finished job, keyed by name.
func fetchArtifacts(t *testing.T, base string, st jobStatus) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, a := range st.Artifacts {
		resp, err := http.Get(base + a.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("artifact %s: code %d", a.Name, resp.StatusCode)
		}
		out[a.Name] = string(body)
	}
	return out
}

// TestShardEndpoint drives POST /v1/shards directly: execution, per-cell
// tiers, and the cached re-run.
func TestShardEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"cells": [
	  {"op": "periods", "probe": {"c": 60, "mu": 3600, "d": 60, "r": 60}},
	  {"op": "periods", "probe": {"c": 120, "mu": 3600, "d": 60, "r": 60}},
	  {"op": "periods", "probe": {"c": 60, "mu": 3600, "d": 60, "r": 60}}
	]}`
	var resp scenario.ShardOutcome
	if code, _ := postJSON(t, ts.URL+"/v1/shards", body, &resp); code != http.StatusOK {
		t.Fatalf("shard: code %d", code)
	}
	if len(resp.Results) != 3 || len(resp.Tiers) != 3 {
		t.Fatalf("got %d results, %d tiers, want 3 each", len(resp.Results), len(resp.Tiers))
	}
	// Two unique cells (the third is a duplicate of the first).
	if resp.Executed != 2 || resp.Cached != 0 {
		t.Errorf("executed %d cached %d, want 2 and 0", resp.Executed, resp.Cached)
	}
	if resp.Results[0].Periods == nil || resp.Results[2].Periods == nil {
		t.Fatal("missing periods results")
	}
	if *resp.Results[0].Periods != *resp.Results[2].Periods {
		t.Error("duplicate cells disagree")
	}

	// Same shard again: everything served from the worker's cache.
	var again scenario.ShardOutcome
	if code, _ := postJSON(t, ts.URL+"/v1/shards", body, &again); code != http.StatusOK {
		t.Fatalf("shard rerun: code %d", code)
	}
	if again.Executed != 0 || again.Cached != 2 {
		t.Errorf("rerun executed %d cached %d, want 0 and 2", again.Executed, again.Cached)
	}

	// Only a coordinator reads shard outcomes: the body is compact JSON,
	// one line with no indentation.
	resp2, err := http.Post(ts.URL+"/v1/shards", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(raw, []byte("\n")) != 1 || bytes.Contains(raw, []byte("  ")) {
		t.Errorf("shard response is not compact JSON:\n%s", raw)
	}
}

func TestShardValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, body := range map[string]string{
		"empty":   `{"cells": []}`,
		"badCell": `{"cells": [{"op": "periods"}]}`,
		"badJSON": `{"cells": `,
		"unknown": `{"cells": [], "bogus": 1}`,
	} {
		if code, _ := postJSON(t, ts.URL+"/v1/shards", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, code)
		}
	}
}

// TestCoordinatorShardsCampaign is the sharded end-to-end: two workers
// over one shared store, a coordinator dispatching to both, and the
// merged artifacts byte-identical to a single-node run of the same
// campaign.
func TestCoordinatorShardsCampaign(t *testing.T) {
	shared := store.NewMemory()
	w1 := startWorker(t, shared)
	w2 := startWorker(t, shared)

	coord := New(Config{
		Cache:      scenario.NewCellCacheStore(shared, 128),
		Workers:    2,
		WorkerURLs: []string{w1.URL, w2.URL},
	})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	st := runCampaign(t, cts.URL, shardCampaign)
	if st.State != StateDone {
		t.Fatalf("job state %q (error %q)", st.State, st.Error)
	}

	// The coordinator executed nothing locally; the fleet did the work.
	if got := coord.Cache().Stats().Executed; got != 0 {
		t.Errorf("coordinator executed %d cells locally, want 0", got)
	}
	if len(st.Workers) == 0 {
		t.Fatal("job status has no per-worker progress")
	}
	var fleetExecuted, fleetCells int
	for _, ws := range st.Workers {
		fleetExecuted += ws.Executed
		fleetCells += ws.Cells
	}
	if fleetExecuted == 0 || fleetCells == 0 {
		t.Errorf("fleet progress executed=%d cells=%d, want both > 0 (%+v)", fleetExecuted, fleetCells, st.Workers)
	}

	// Per-worker counters surface in /v1/stats and /metrics.
	var stats struct {
		Server ServerStats `json:"server"`
	}
	if code := getJSON(t, cts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats code %d", code)
	}
	if len(stats.Server.Workers) != 2 {
		t.Errorf("stats list %d workers, want 2", len(stats.Server.Workers))
	}
	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "ftserve_worker_shards_total") {
		t.Error("metrics lack ftserve_worker_shards_total")
	}

	// Byte-for-byte: a single-node run of the same campaign produces
	// identical artifacts.
	single, _ := newTestServer(t)
	sst := runCampaign(t, single.URL, shardCampaign)
	if sst.State != StateDone {
		t.Fatalf("single-node job state %q (error %q)", sst.State, sst.Error)
	}
	got := fetchArtifacts(t, cts.URL, st)
	want := fetchArtifacts(t, single.URL, sst)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("artifact sets differ: sharded %d, single-node %d", len(got), len(want))
	}
	for name, wantCSV := range want {
		if got[name] != wantCSV {
			t.Errorf("artifact %s differs between sharded and single-node run", name)
		}
	}
}

// pairedCampaign puts a precision heatmap with a baseline behind 3600
// cheap model cells. The heatmap's 32 cells keep every replica's waste
// (about 20 JSON bytes each) and pair into 16 two-cell trace cohorts. At
// one coordinator worker, count-only units of ⌈3632/4⌉ = 908 cells would
// put all 32 in the last unit: 480,000 kept replicas, some 10 MB.
const pairedCampaign = `{
  "name": "paired", "seed": 3, "reps": 15000,
  "scenarios": [
    {"name": "m", "kind": "heatmap", "protocol": "abft",
     "mtbf_minutes": {"from": 60, "to": 240, "count": 60},
     "alphas": {"from": 0, "to": 1, "count": 60}},
    {"name": "h", "kind": "heatmap", "output": "sim", "protocol": "abft",
     "share_traces": true, "precision": {"rel_ci": 1e-9, "baseline": "pure"},
     "mtbf_minutes": {"values": [5000, 10000, 20000, 40000]},
     "alphas": {"values": [0.2, 0.5, 0.8, 0.9]}}]
}`

// TestCoordinatorShardsKeptReplicasUnderResponseCap: dispatch units close
// on their kept-replica budget, not only on their size target, so every
// shard response of a replica-heavy campaign stays under the response
// cap and the sharded run matches a single-node run byte for byte.
func TestCoordinatorShardsKeptReplicasUnderResponseCap(t *testing.T) {
	w1, w2 := startWorker(t, nil), startWorker(t, nil)
	cts := httptest.NewServer(New(Config{
		Cache:      scenario.NewCellCacheStore(nil, 0),
		Workers:    1,
		WorkerURLs: []string{w1.URL, w2.URL},
	}).Handler())
	t.Cleanup(cts.Close)
	st := runCampaign(t, cts.URL, pairedCampaign)
	if st.State != StateDone {
		t.Fatalf("sharded job state %q (error %q)", st.State, st.Error)
	}
	shards := 0
	for _, ws := range st.Workers {
		shards += ws.Shards
	}
	// The size target alone makes 4 units at one worker; the budget
	// splits the paired cells further.
	if shards <= 4 {
		t.Errorf("%d shards, want more than the 4 the size target makes", shards)
	}

	single := httptest.NewServer(New(Config{Cache: scenario.NewCellCacheStore(nil, 0), Workers: 2}).Handler())
	t.Cleanup(single.Close)
	sst := runCampaign(t, single.URL, pairedCampaign)
	if sst.State != StateDone {
		t.Fatalf("single-node job state %q (error %q)", sst.State, sst.Error)
	}
	got, want := fetchArtifacts(t, cts.URL, st), fetchArtifacts(t, single.URL, sst)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("artifact sets differ: sharded %d, single-node %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("artifact %s differs between sharded and single-node run", name)
		}
	}
}

// TestCoordinatorJobCountsFleetExecution: with workers sharing the
// coordinator's store, a cold sharded run reports every unique cell as
// executed (matching the fleet's own counters), and a warm rerun reports
// none.
func TestCoordinatorJobCountsFleetExecution(t *testing.T) {
	shared := store.NewMemory()
	w1 := startWorker(t, shared)
	w2 := startWorker(t, shared)
	coord := New(Config{
		Cache:      scenario.NewCellCacheStore(shared, 128),
		Workers:    2,
		WorkerURLs: []string{w1.URL, w2.URL},
	})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	cold := runCampaign(t, cts.URL, shardCampaign)
	if cold.State != StateDone {
		t.Fatalf("cold job state %q (error %q)", cold.State, cold.Error)
	}
	fleet := 0
	for _, ws := range cold.Workers {
		fleet += ws.Executed
	}
	if c := cold.Cells; c.Total == 0 || c.Executed != c.Total || fleet != c.Total || c.Cached != 0 || c.Done != c.Total {
		t.Errorf("cold run cells %+v with fleet executed %d; want executed == total == fleet, cached 0", c, fleet)
	}

	warm := runCampaign(t, cts.URL, shardCampaign)
	if warm.State != StateDone {
		t.Fatalf("warm job state %q (error %q)", warm.State, warm.Error)
	}
	if c := warm.Cells; c.Executed != 0 || c.Cached != c.Total || c.Total != cold.Cells.Total || len(warm.Workers) != 0 {
		t.Errorf("warm rerun cells %+v, workers %+v; want executed 0, all cached, no shards", c, warm.Workers)
	}
}

// TestCoordinatorFailsOverDeadWorker: a fleet with one unreachable worker
// still completes jobs, and the dead worker's errors are counted.
func TestCoordinatorFailsOverDeadWorker(t *testing.T) {
	shared := store.NewMemory()
	live := startWorker(t, shared)

	coord := New(Config{
		Cache:      scenario.NewCellCacheStore(shared, 128),
		Workers:    2,
		WorkerURLs: []string{"http://127.0.0.1:1", live.URL},
	})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	st := runCampaign(t, cts.URL, e2eCampaign)
	if st.State != StateDone {
		t.Fatalf("job state %q (error %q)", st.State, st.Error)
	}
	var dead, liveStat *WorkerStatus
	for _, ws := range coord.workerStatuses() {
		ws := ws
		if ws.URL == live.URL {
			liveStat = &ws
		} else {
			dead = &ws
		}
	}
	if dead == nil || dead.Errors == 0 {
		t.Errorf("dead worker shows no dispatch errors: %+v", dead)
	}
	if liveStat == nil || liveStat.Shards == 0 {
		t.Errorf("live worker served no shards: %+v", liveStat)
	}
}

// TestCoordinatorAllWorkersDownFailsJob: with no reachable worker the job
// reaches a terminal failed state instead of hanging.
func TestCoordinatorAllWorkersDownFailsJob(t *testing.T) {
	coord := New(Config{
		Cache:       scenario.NewCellCacheStore(store.NewMemory(), 128),
		WorkerURLs:  []string{"http://127.0.0.1:1"},
		ShardClient: &http.Client{Timeout: time.Second},
	})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	st := runCampaign(t, cts.URL, `{"name": "doomed", "scenarios": [{"name": "p", "kind": "periods"}]}`)
	if st.State != StateFailed {
		t.Fatalf("job state %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "worker") {
		t.Errorf("error %q does not name the worker failure", st.Error)
	}
}

// TestRemoteStoreTierE2E wires one server's cache to another server's
// mounted /v1/store/ — the deployment shape of a worker pointed at a
// coordinator's store — and checks results land in the upstream store
// and the upstream counts the store requests.
func TestRemoteStoreTierE2E(t *testing.T) {
	upstream, upstreamSrv := newTestServer(t) // disk-backed, mounts /v1/store/

	remote := store.NewRemote(upstream.URL+"/v1/store", nil)
	srv := New(Config{Cache: scenario.NewCellCacheStore(remote, 128), Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if code, _ := postJSON(t, ts.URL+"/v1/cells", periodsCellBody, nil); code != http.StatusOK {
		t.Fatalf("cell: code %d", code)
	}
	// The upstream's disk store now holds the cell: a fresh cache over the
	// same remote store serves it without executing.
	fresh := New(Config{Cache: scenario.NewCellCacheStore(store.NewRemote(upstream.URL+"/v1/store", nil), 128)})
	fts := httptest.NewServer(fresh.Handler())
	t.Cleanup(fts.Close)
	code, hdr := postJSON(t, fts.URL+"/v1/cells", periodsCellBody, nil)
	if code != http.StatusOK || hdr.Get("X-Cache") != string(scenario.TierDisk) {
		t.Fatalf("fresh cache over remote store: code %d X-Cache %q, want 200 disk", code, hdr.Get("X-Cache"))
	}
	if upstreamSrv.Cache().Stats().Executed != 0 {
		t.Error("upstream executed cells; the store mount must not execute")
	}
	// The mount is instrumented like every route: the cold cell's /get and
	// /put and the fresh cache's /get.
	var storeReqs int64
	for _, ep := range upstreamSrv.Metrics().EndpointSummaries() {
		if ep.Endpoint == "store" {
			storeReqs = ep.Requests
		}
	}
	if storeReqs != 3 {
		t.Errorf("upstream counted %d store requests, want 3", storeReqs)
	}
}
