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
