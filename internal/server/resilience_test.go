package server

import (
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"abftckpt/internal/chaos"
	"abftckpt/internal/scenario"
	"abftckpt/internal/store"
)

// TestCoordinatorCompletesUnderChaos is the headline resilience run: a
// sharded campaign completes — with artifacts byte-identical to a clean
// single-node run — while a seeded fault schedule kills one worker
// mid-campaign (network partition after its first shard) and, in a
// second pass, corrupts store reads under the surviving fleet. The whole
// scenario replays from the seeds embedded here.
func TestCoordinatorCompletesUnderChaos(t *testing.T) {
	// Clean single-node reference run.
	single, _ := newTestServer(t)
	sst := runCampaign(t, single.URL, shardCampaign)
	if sst.State != StateDone {
		t.Fatalf("clean run state %q (error %q)", sst.State, sst.Error)
	}
	want := fetchArtifacts(t, single.URL, sst)
	if len(want) == 0 {
		t.Fatal("clean run produced no artifacts")
	}

	// Phase 1: two workers over one shared store; the coordinator's wire
	// is chaotic — w1 vanishes after its first shard (PartitionAfter), so
	// its breaker opens and the fleet fails over to w2.
	base := store.NewMemory()
	w1 := startWorker(t, store.WithChecksum(base))
	w2 := startWorker(t, store.WithChecksum(base))
	w1Host := strings.TrimPrefix(w1.URL, "http://")
	rt := chaos.NewTransport(nil, chaos.Faults{
		Seed:           4242,
		MaxDelay:       2 * time.Millisecond,
		PartitionAfter: map[string]int{w1Host: 1},
	})
	coord := New(Config{
		Cache:            scenario.NewCellCacheStore(store.WithChecksum(base), 128),
		Workers:          2,
		WorkerURLs:       []string{w1.URL, w2.URL},
		BreakerThreshold: 1,
		ShardClient:      &http.Client{Transport: rt, Timeout: 10 * time.Second},
	})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	st := runCampaign(t, cts.URL, shardCampaign)
	if st.State != StateDone {
		t.Fatalf("chaos run state %q (error %q)", st.State, st.Error)
	}
	got := fetchArtifacts(t, cts.URL, st)
	if len(got) != len(want) {
		t.Fatalf("artifact sets differ: chaos %d, clean %d", len(got), len(want))
	}
	for name, wantCSV := range want {
		if got[name] != wantCSV {
			t.Errorf("artifact %s differs between chaos and clean run", name)
		}
	}
	if s := rt.Stats(); s.Partitioned == 0 {
		t.Errorf("partition never fired: %+v", s)
	}

	// The dead worker's breaker opened, and both stats surfaces show it.
	var stats struct {
		Server ServerStats `json:"server"`
	}
	if code := getJSON(t, cts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats code %d", code)
	}
	var w1Stat *WorkerStatus
	for i, ws := range stats.Server.Workers {
		if ws.URL == w1.URL {
			w1Stat = &stats.Server.Workers[i]
		}
	}
	if w1Stat == nil {
		t.Fatal("stats do not list the partitioned worker")
	}
	if w1Stat.BreakerOpens == 0 || w1Stat.Breaker == BreakerClosed {
		t.Errorf("partitioned worker breaker state %q opens %d, want open(ed)",
			w1Stat.Breaker, w1Stat.BreakerOpens)
	}
	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom := readBody(t, resp)
	for _, metric := range []string{"ftserve_worker_breaker_state", "ftserve_worker_breaker_opens_total"} {
		if !strings.Contains(prom, metric) {
			t.Errorf("metrics lack %s", metric)
		}
	}

	// Phase 2: the store itself turns hostile. A fresh coordinator
	// re-reads the now-warm shared store through a corrupting injector;
	// every corrupt read must degrade to a checksum miss and a dispatch
	// to the (clean-store) fleet, and the artifacts must still match the
	// clean run bit for bit.
	faulty := chaos.NewStore(base, chaos.Faults{Seed: 99, CorruptRate: 0.5})
	w3 := startWorker(t, store.WithChecksum(base))
	coord2 := New(Config{
		Cache:      scenario.NewCellCacheStore(store.WithChecksum(faulty), 128),
		Workers:    2,
		WorkerURLs: []string{w3.URL},
	})
	cts2 := httptest.NewServer(coord2.Handler())
	t.Cleanup(cts2.Close)

	st2 := runCampaign(t, cts2.URL, shardCampaign)
	if st2.State != StateDone {
		t.Fatalf("corrupt-store run state %q (error %q)", st2.State, st2.Error)
	}
	got2 := fetchArtifacts(t, cts2.URL, st2)
	for name, wantCSV := range want {
		if got2[name] != wantCSV {
			t.Errorf("artifact %s differs under store corruption", name)
		}
	}
	if s := faulty.Stats(); s.Corrupted == 0 {
		t.Errorf("store corruption never fired: %+v", s)
	}
}

// TestDispatchHonorsRetryAfter pins the 429 path: a worker that sheds
// the first shard with Retry-After: 1 delays the retry by at least that
// long, and the rejection does not count toward its circuit breaker.
func TestDispatchHonorsRetryAfter(t *testing.T) {
	worker := startWorker(t, store.NewMemory())
	target, err := url.Parse(worker.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var shed atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards" && shed.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)

	coord := New(Config{
		Cache:      scenario.NewCellCacheStore(store.NewMemory(), 128),
		WorkerURLs: []string{front.URL},
	})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	start := time.Now()
	st := runCampaign(t, cts.URL, `{"name": "busy", "scenarios": [{"name": "p", "kind": "periods"}]}`)
	if st.State != StateDone {
		t.Fatalf("job state %q (error %q)", st.State, st.Error)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Errorf("retry took %s, want >= ~1s (Retry-After ignored)", elapsed)
	}
	if state, opens := coord.breakers[0].snapshot(); opens != 0 || state != BreakerClosed {
		t.Errorf("429 tripped the breaker: state %q opens %d", state, opens)
	}
}

// TestRejectedShardDoesNotTripBreaker: a worker that answers a shard
// with 400 (validation, version skew) is alive, so even at
// BreakerThreshold 1 its breaker stays closed; the job still fails over
// and retries, and fails once every round is spent.
func TestRejectedShardDoesNotTripBreaker(t *testing.T) {
	var shards atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards" {
			shards.Add(1)
			http.Error(w, "cell 0: unknown op", http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(stub.Close)

	coord := New(Config{
		Cache:            scenario.NewCellCacheStore(store.NewMemory(), 128),
		WorkerURLs:       []string{stub.URL},
		BreakerThreshold: 1,
	})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	st := runCampaign(t, cts.URL, `{"name": "rejected", "scenarios": [{"name": "p", "kind": "periods"}]}`)
	if st.State != StateFailed || !strings.Contains(st.Error, "400") {
		t.Fatalf("job state %q (error %q), want failed naming the 400", st.State, st.Error)
	}
	if n := shards.Load(); n < dispatchRounds {
		t.Errorf("worker saw %d shard attempts, want at least one per round (%d)", n, dispatchRounds)
	}
	if state, opens := coord.breakers[0].snapshot(); opens != 0 || state != BreakerClosed {
		t.Errorf("400 tripped the breaker: state %q opens %d", state, opens)
	}
}

// TestBreakerIgnoresStaleOutcomes: a shard still in flight when the
// worker's breaker opens cannot close it by completing late, and its
// failure does not reopen it; outcomes of attempts begun after the open
// count as usual.
func TestBreakerIgnoresStaleOutcomes(t *testing.T) {
	b := newBreaker(1)
	slow, fast := b.begin(), b.begin()
	b.failure(fast)
	if state, opens := b.snapshot(); state != BreakerOpen || opens != 1 {
		t.Fatalf("after a failure at threshold 1: state %q opens %d, want open 1", state, opens)
	}
	b.success(slow)
	if state, _ := b.snapshot(); state != BreakerOpen {
		t.Errorf("stale success moved the breaker to %q, want it open", state)
	}
	b.failure(slow)
	if _, opens := b.snapshot(); opens != 1 {
		t.Errorf("stale failure reopened the breaker: opens %d, want 1", opens)
	}
	b.success(b.begin())
	if state, _ := b.snapshot(); state != BreakerClosed {
		t.Errorf("current success left the breaker %q, want closed", state)
	}
}

// TestDrainAbortsRetryStorm is the satellite regression: a job stuck in
// a long Retry-After backoff (every attempt 429s with Retry-After: 30)
// must fail promptly when the coordinator begins draining, instead of
// sleeping out the storm.
func TestDrainAbortsRetryStorm(t *testing.T) {
	worker := startWorker(t, store.NewMemory())
	rt := chaos.NewTransport(nil, chaos.Faults{Seed: 7, Status429Rate: 1, RetryAfterSec: 30})
	coord := New(Config{
		Cache:       scenario.NewCellCacheStore(store.NewMemory(), 128),
		WorkerURLs:  []string{worker.URL},
		ShardClient: &http.Client{Transport: rt, Timeout: 10 * time.Second},
	})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	var created struct {
		ID string `json:"id"`
	}
	if code, _ := postJSON(t, cts.URL+"/v1/campaigns", e2eCampaign, &created); code != http.StatusAccepted {
		t.Fatalf("create: code %d", code)
	}
	waitState(t, cts.URL, created.ID, StateRunning)
	time.Sleep(100 * time.Millisecond) // let dispatch enter its backoff wait

	start := time.Now()
	coord.BeginDrain()
	st := waitDone(t, cts.URL, created.ID)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("job outlived drain by %s, want prompt abort", elapsed)
	}
	if st.State != StateFailed {
		t.Fatalf("job state %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "drain") {
		t.Errorf("error %q does not name the drain", st.Error)
	}
}

// TestJournalResume pins the restart story: a coordinator killed with a
// job in flight leaves its journal entry behind, and a fresh server over
// the same store resumes the job under its original id and finishes it.
func TestJournalResume(t *testing.T) {
	rs := store.NewMemory()

	// Server A: a coordinator whose dispatches stall in a 429 storm, so
	// the job is reliably mid-flight when the process "dies".
	worker := startWorker(t, rs)
	rt := chaos.NewTransport(nil, chaos.Faults{Seed: 11, Status429Rate: 1, RetryAfterSec: 30})
	a := New(Config{
		Cache:       scenario.NewCellCacheStore(rs, 128),
		WorkerURLs:  []string{worker.URL},
		ShardClient: &http.Client{Transport: rt, Timeout: 10 * time.Second},
	})
	ats := httptest.NewServer(a.Handler())
	t.Cleanup(ats.Close)

	var created struct {
		ID string `json:"id"`
	}
	if code, _ := postJSON(t, ats.URL+"/v1/campaigns", e2eCampaign, &created); code != http.StatusAccepted {
		t.Fatalf("create: code %d", code)
	}
	waitState(t, ats.URL, created.ID, StateRunning)
	if n := a.FailLiveJobs("server shutdown: drain deadline exceeded"); n != 1 {
		t.Fatalf("force-failed %d jobs, want 1", n)
	}
	if jobs := loadJournal(rs).Jobs; len(jobs) != 1 || jobs[0].ID != created.ID {
		t.Fatalf("journal after shutdown: %+v, want the one in-flight job", jobs)
	}

	// Server B: same store, no fleet — it executes locally. The journaled
	// job resumes under its original id and runs to completion.
	b := New(Config{Cache: scenario.NewCellCacheStore(rs, 128), Workers: 2})
	if n := b.ResumeJournal(); n != 1 {
		t.Fatalf("resumed %d jobs, want 1", n)
	}
	bts := httptest.NewServer(b.Handler())
	t.Cleanup(bts.Close)
	st := waitDone(t, bts.URL, created.ID)
	if st.State != StateDone {
		t.Fatalf("resumed job state %q (error %q)", st.State, st.Error)
	}
	// The finished job has left the journal by the time it reads done.
	if jobs := loadJournal(rs).Jobs; len(jobs) != 0 {
		t.Fatalf("journal still holds %+v after completion", jobs)
	}
	// Resuming again is a no-op: nothing journaled, nothing restarted.
	if n := b.ResumeJournal(); n != 0 {
		t.Errorf("second resume restarted %d jobs, want 0", n)
	}
}

// TestPostShardBodyCap pins the truncation fix: an oversized worker
// response is reported as oversized — not clipped at the cap and blamed
// on JSON — while a response at exactly the cap still decodes.
func TestPostShardBodyCap(t *testing.T) {
	pad := func(body string, n int) string {
		return body + strings.Repeat(" ", n-len(body))
	}
	bodies := map[string]string{
		"/huge":  pad(`{"results": [], "tiers": []}`, maxBodyBytes+1),
		"/exact": pad(`{"results": [], "tiers": []}`, maxBodyBytes),
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := bodies[strings.TrimSuffix(r.URL.Path, "/v1/shards")]
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body)) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)

	s := New(Config{Cache: scenario.NewCellCacheStore(store.NewMemory(), 8)})
	if _, err := s.postShard(t.Context(), ts.URL+"/huge", []byte("{}")); err == nil ||
		!strings.Contains(err.Error(), "response exceeds") {
		t.Errorf("oversized response: err %v, want 'response exceeds'", err)
	}
	if resp, err := s.postShard(t.Context(), ts.URL+"/exact", []byte("{}")); err != nil || resp == nil {
		t.Errorf("exactly-at-cap response: err %v, want clean decode", err)
	}
}

// waitState polls a job until it reaches the given state.
func waitState(t *testing.T, base, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st jobStatus
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("job status code %d", code)
		}
		if st.State == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s state %q, want %q", id, st.State, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readBody drains and closes an HTTP response body as a string.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
