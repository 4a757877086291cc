package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"abftckpt/internal/chaos"
	"abftckpt/internal/scenario"
)

// Fuzz iterations stay small: campaigns past fuzzMaxCells unique cells
// are skipped, repetition counts are capped at fuzzMaxReps, and a campaign
// whose single-node run outlasts fuzzLocalBudget is skipped before the
// sharded run.
const (
	fuzzMaxCells    = 200
	fuzzMaxReps     = 4
	fuzzLocalBudget = 2 * time.Second
)

// FuzzCoordinatorMatchesLocal runs each small campaign twice — on a
// single-node server, and on a coordinator sharding it over two workers
// through a seeded chaos transport (delays, dropped connections, 5xx and
// truncated responses) — and byte-compares every artifact. Dispatch
// packing, failover and re-dispatch must never change an output byte. It
// is seeded with the inputs FuzzLoadCampaign starts from: the example
// campaigns and a few one-scenario campaigns.
func FuzzCoordinatorMatchesLocal(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "campaigns", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example campaigns found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, int64(1))
	}
	f.Add([]byte(`{"name":"x","scenarios":[{"name":"p","kind":"periods"}]}`), int64(2))
	f.Add([]byte(`{"name":"x","scenarios":[{"name":"h","kind":"heatmap","protocol":"abft",
		"mtbf_minutes":{"from":60,"to":120,"count":3},"alphas":{"values":[0,0.5]}}]}`), int64(3))
	f.Add([]byte(`{"name":"x","scenarios":[{"name":"s","kind":"scaling",
		"nodes":{"preset":"paper-nodes"},"series":[{"platform":"paper-fig10","protocol":"pure"}]}]}`), int64(4))

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		c, err := scenario.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if c.Reps == 0 || c.Reps > fuzzMaxReps {
			c.Reps = fuzzMaxReps
		}
		for _, s := range c.Scenarios {
			s.Reps = min(s.Reps, fuzzMaxReps)
		}
		plan, err := scenario.PlanCampaign(c)
		if err != nil || plan.Unique > fuzzMaxCells {
			return
		}
		body, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}

		single := httptest.NewServer(New(Config{Cache: scenario.NewCellCacheStore(nil, 0), Workers: 2}).Handler())
		defer single.Close()
		want, ok := runWithin(t, single.URL, body, fuzzLocalBudget)
		if !ok {
			t.Skip("campaign too slow for a fuzz iteration")
		}
		if want.State != StateDone {
			return // a campaign that fails single-node has nothing to compare
		}

		// No shared store: every result reaches the coordinator over the
		// shard wire, not through a store the workers wrote. A shard gets
		// up to six attempts (three rounds over two workers); at 2% per
		// fault an attempt fails about 6% of the time, so a correct run
		// loses a shard to injected faults alone about once in 10^7.
		w1, w2 := startWorker(t, nil), startWorker(t, nil)
		rt := chaos.NewTransport(nil, chaos.Faults{
			Seed:          seed,
			MaxDelay:      time.Millisecond,
			ErrRate:       0.02,
			Status500Rate: 0.02,
			TruncateRate:  0.02,
		})
		coord := httptest.NewServer(New(Config{
			Cache:       scenario.NewCellCacheStore(nil, 0),
			Workers:     2,
			WorkerURLs:  []string{w1.URL, w2.URL},
			ShardClient: &http.Client{Transport: rt, Timeout: 10 * time.Second},
		}).Handler())
		defer coord.Close()
		got, _ := runWithin(t, coord.URL, body, 30*time.Second)
		if got.State != StateDone {
			t.Fatalf("sharded job state %q (error %q); single-node run succeeded", got.State, got.Error)
		}
		wantArts, gotArts := fetchArtifacts(t, single.URL, want), fetchArtifacts(t, coord.URL, got)
		if len(gotArts) != len(wantArts) {
			t.Fatalf("sharded run produced %d artifacts, single-node %d", len(gotArts), len(wantArts))
		}
		for name, w := range wantArts {
			if gotArts[name] != w {
				t.Errorf("artifact %s differs between sharded and single-node run", name)
			}
		}
	})
}

// runWithin submits a campaign and polls the job until it is terminal or
// the budget runs out (ok false).
func runWithin(t *testing.T, base string, campaign []byte, budget time.Duration) (st jobStatus, ok bool) {
	t.Helper()
	var created struct {
		ID string `json:"id"`
	}
	if code, _ := postJSON(t, base+"/v1/campaigns", string(campaign), &created); code != http.StatusAccepted {
		t.Fatalf("create: code %d", code)
	}
	deadline := time.Now().Add(budget)
	for {
		if code := getJSON(t, base+"/v1/jobs/"+created.ID, &st); code != http.StatusOK {
			t.Fatalf("job status code %d", code)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st, true
		}
		if time.Now().After(deadline) {
			return st, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fuzzCellMaxWork skips cell bodies past this many replica-epochs, so each
// fuzz iteration stays fast.
const fuzzCellMaxWork = 64

// FuzzCellRequest feeds arbitrary bodies to POST /v1/cells, seeded from the
// bench cells and the specs of the pinned cache entries. The decoder must
// answer 200, 400 or 413, never 500 or a panic. A 200 names the cell by
// the hash of the test's own strict decode of the body, and a repeat POST
// is served from memory with identical result bytes.
func FuzzCellRequest(f *testing.F) {
	for _, cell := range scenario.BenchCells() {
		data, err := json.Marshal(cell)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	paths, err := filepath.Glob(filepath.Join("..", "scenario", "testdata", "cache_entries", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no pinned cache entries found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		var entry struct {
			Spec json.RawMessage `json:"spec"`
		}
		if err := json.Unmarshal(data, &entry); err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		f.Add([]byte(entry.Spec))
	}
	f.Add([]byte(`{"op":"periods","bogus":1}`))
	f.Add([]byte(`not json`))

	h := New(Config{Cache: scenario.NewCellCache("", 256), Workers: 1}).Handler()
	// cellReply is cellResponse with the result kept as raw bytes.
	type cellReply struct {
		Cell   string            `json:"cell"`
		Cache  scenario.CellTier `json:"cache"`
		Result json.RawMessage   `json:"result"`
	}
	post := func(t *testing.T, body []byte) (int, cellReply) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cells", bytes.NewReader(body)))
		var reply cellReply
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("200 body does not decode: %v\n%s", err, rec.Body.Bytes())
			}
		}
		return rec.Code, reply
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var spec scenario.CellSpec
		decoded := dec.Decode(&spec) == nil
		if decoded && spec.Reps*max(spec.Epochs, 1) > fuzzCellMaxWork {
			return
		}
		code, first := post(t, body)
		switch code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for body %q", code, body)
		}
		if !decoded {
			t.Fatalf("200 for a body the strict decoder rejects: %q", body)
		}
		if first.Cell != spec.Hash() {
			t.Fatalf("cell %s, want the hash of the body %s", first.Cell, spec.Hash())
		}
		code, second := post(t, body)
		if code != http.StatusOK || second.Cache != scenario.TierMem {
			t.Fatalf("repeat POST: status %d tier %q, want 200 %q", code, second.Cache, scenario.TierMem)
		}
		if second.Cell != first.Cell || !bytes.Equal(second.Result, first.Result) {
			t.Fatalf("repeat POST changed the answer:\n%s\n%s", first.Result, second.Result)
		}
	})
}

// FuzzShardRequest feeds arbitrary bodies to POST /v1/shards, seeded from
// TestShardEndpoint's body and the bench cells. The decoder must answer
// 200, 400 or 413, never 500 or a panic. A 200 must decode strictly into
// scenario.ShardOutcome with one result and one tier per request cell,
// and Executed+Cached must count the request's unique cells.
func FuzzShardRequest(f *testing.F) {
	f.Add([]byte(`{"cells": [
	  {"op": "periods", "probe": {"c": 60, "mu": 3600, "d": 60, "r": 60}},
	  {"op": "periods", "probe": {"c": 120, "mu": 3600, "d": 60, "r": 60}},
	  {"op": "periods", "probe": {"c": 60, "mu": 3600, "d": 60, "r": 60}}
	]}`))
	var all []scenario.CellSpec
	for _, cell := range scenario.BenchCells() {
		data, err := json.Marshal(shardRequest{Cells: []scenario.CellSpec{cell}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		all = append(all, cell)
	}
	data, err := json.Marshal(shardRequest{Cells: all})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"cells": []}`))
	f.Add([]byte(`{"cells": [{"op": "periods"}], "bogus": 1}`))
	f.Add([]byte(`not json`))

	h := New(Config{Cache: scenario.NewCellCache("", 256), Workers: 1}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req shardRequest
		decoded := dec.Decode(&req) == nil
		if decoded {
			work := 0
			for _, c := range req.Cells {
				work += max(c.Reps, 0) * max(c.Epochs, 1)
			}
			if work > fuzzCellMaxWork {
				return
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shards", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if !decoded {
			t.Fatalf("200 for a body the strict decoder rejects: %q", body)
		}
		out := json.NewDecoder(rec.Body)
		out.DisallowUnknownFields()
		var got scenario.ShardOutcome
		if err := out.Decode(&got); err != nil {
			t.Fatalf("200 body does not decode strictly: %v", err)
		}
		if len(got.Results) != len(req.Cells) || len(got.Tiers) != len(req.Cells) {
			t.Fatalf("%d results, %d tiers for %d cells", len(got.Results), len(got.Tiers), len(req.Cells))
		}
		unique := map[string]bool{}
		for _, c := range req.Cells {
			unique[c.Hash()] = true
		}
		if got.Executed+got.Cached != len(unique) {
			t.Fatalf("executed %d + cached %d, want %d unique cells", got.Executed, got.Cached, len(unique))
		}
	})
}
