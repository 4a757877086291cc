package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"abftckpt/internal/chaos"
	"abftckpt/internal/scenario"
	"abftckpt/internal/store"
)

// newServerOn serves an already-configured Server over httptest.
func newServerOn(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestDrainRefusesNewWork: after BeginDrain every work-accepting POST
// returns 503 while the read endpoints keep serving (clients must still
// be able to poll jobs and scrape metrics during the drain).
func TestDrainRefusesNewWork(t *testing.T) {
	ts, srv := newTestServer(t)
	srv.BeginDrain()
	for _, probe := range []struct{ path, body string }{
		{"/v1/campaigns", e2eCampaign},
		{"/v1/cells", periodsCellBody},
		{"/v1/shards", `{"cells": [` + periodsCellBody + `]}`},
	} {
		if code, _ := postJSON(t, ts.URL+probe.path, probe.body, nil); code != http.StatusServiceUnavailable {
			t.Errorf("POST %s while draining: code %d, want 503", probe.path, code)
		}
	}
	var stats struct {
		Server ServerStats `json:"server"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats while draining: code %d", code)
	}
	if !stats.Server.Draining {
		t.Error("stats do not report draining")
	}
}

// TestForceFailWinsOverFinish: a job failed by the shutdown drain stays
// failed with the shutdown reason even when its runner goroutine finishes
// successfully afterwards.
func TestForceFailWinsOverFinish(t *testing.T) {
	j := newJob("c")
	j.setRunning(0)
	if !j.forceFail("server shutdown: drain deadline exceeded") {
		t.Fatal("forceFail on a running job reported not-live")
	}
	j.finish(&scenario.Report{Unique: 3, CacheHits: 3}, nil)
	st := j.status()
	if st.State != StateFailed || st.Error != "server shutdown: drain deadline exceeded" {
		t.Errorf("state %q error %q; finish overwrote the forced failure", st.State, st.Error)
	}
	// Terminal jobs are not re-failed.
	if j.forceFail("again") {
		t.Error("forceFail on a terminal job reported live")
	}
}

// TestSettleOrdersForceFail: settle reports a shutdown force-fail that came
// first (the job keeps its journal entry), and once a job has settled a
// late force-fail leaves it to finish on its own terms.
func TestSettleOrdersForceFail(t *testing.T) {
	forced := newJob("c")
	forced.setRunning(0)
	forced.forceFail("server shutdown")
	if !forced.settle() {
		t.Error("settle after forceFail did not report the forced job")
	}
	settled := newJob("c")
	settled.setRunning(0)
	if settled.settle() {
		t.Fatal("settle reported a force-fail that never happened")
	}
	if settled.forceFail("server shutdown") {
		t.Fatal("forceFail claimed a settled job")
	}
	settled.finish(&scenario.Report{Unique: 1}, nil)
	if st := settled.status(); st.State != StateDone {
		t.Errorf("settled job state %q (error %q), want done", st.State, st.Error)
	}
}

// TestFailLiveJobs force-fails queued and running jobs and leaves
// finished ones alone.
func TestFailLiveJobs(t *testing.T) {
	srv := New(Config{})
	live := newJob("live")
	live.setRunning(0)
	done := newJob("done")
	done.finish(&scenario.Report{}, nil)
	srv.mu.Lock()
	srv.jobs["a"] = live
	srv.jobs["b"] = done
	srv.mu.Unlock()

	if n := srv.FailLiveJobs("server shutdown"); n != 1 {
		t.Errorf("failed %d jobs, want 1", n)
	}
	if st := live.status(); st.State != StateFailed || st.Error != "server shutdown" {
		t.Errorf("live job state %q error %q", st.State, st.Error)
	}
	if st := done.status(); st.State != StateDone {
		t.Errorf("finished job state %q, want done untouched", st.State)
	}
}

// TestAwaitIdle: immediate when idle, deadline-bounded when jobs are live.
func TestAwaitIdle(t *testing.T) {
	srv := New(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if !srv.AwaitIdle(ctx) {
		t.Fatal("idle server did not report idle")
	}
	srv.mu.Lock()
	srv.runningJobs = 1
	srv.mu.Unlock()
	busyCtx, cancelBusy := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelBusy()
	if srv.AwaitIdle(busyCtx) {
		t.Fatal("busy server reported idle")
	}
	srv.mu.Lock()
	srv.runningJobs = 0
	srv.mu.Unlock()
	okCtx, cancelOK := context.WithTimeout(context.Background(), time.Second)
	defer cancelOK()
	if !srv.AwaitIdle(okCtx) {
		t.Fatal("server did not report idle after the job drained")
	}
}

// TestRetryAfterTracksQueueWait: the Retry-After hint on 429s starts at
// the constant fallback, then follows the sliding-window median of
// observed admission queue waits, clamped to [1s, 30s].
func TestRetryAfterTracksQueueWait(t *testing.T) {
	ts, srv := newTestServer(t)
	// Saturate the cell admission semaphore so every request rejects
	// immediately (no wait: the window must stay exactly as seeded).
	srv.admissionWait = -1
	for i := 0; i < cap(srv.cellSem); i++ {
		srv.cellSem <- struct{}{}
	}

	hint := func() string {
		t.Helper()
		code, hdr := postJSON(t, ts.URL+"/v1/cells", periodsCellBody, nil)
		if code != http.StatusTooManyRequests {
			t.Fatalf("code %d, want 429", code)
		}
		return hdr.Get("Retry-After")
	}

	if got := hint(); got != fmt.Sprint(retryAfterSeconds) {
		t.Errorf("empty window: Retry-After %q, want %d", got, retryAfterSeconds)
	}
	// Drive the observed queue wait up; the hint must follow (12.3s of
	// median wait rounds up to 13).
	for i := 0; i < 32; i++ {
		srv.metrics.Observe(RequestSample{Endpoint: "cells", Method: "POST", Status: 200, QueueWaitMS: 12_300, DurationMS: 12_400})
	}
	if got := hint(); got != "13" {
		t.Errorf("after 12.3s median wait: Retry-After %q, want 13", got)
	}
	// Pathological waits clamp at the ceiling.
	for i := 0; i < latWindowSize; i++ {
		srv.metrics.Observe(RequestSample{Endpoint: "cells", Method: "POST", Status: 200, QueueWaitMS: 300_000, DurationMS: 300_100})
	}
	if got := hint(); got != fmt.Sprint(maxRetryAfterSeconds) {
		t.Errorf("after 300s median wait: Retry-After %q, want %d", got, maxRetryAfterSeconds)
	}
}

// TestRestartKeepsWarmCache is the operator story behind the pluggable
// store: run a campaign, restart the server over the same store, re-run
// the same campaign, and nothing executes again — every cell is served
// from the store, and the artifacts are byte-identical.
func TestRestartKeepsWarmCache(t *testing.T) {
	dir := t.TempDir()

	first := New(Config{Cache: scenario.NewCellCache(dir, 128), Workers: 2})
	fts := newServerOn(t, first)
	st1 := runCampaign(t, fts.URL, shardCampaign)
	if st1.State != StateDone {
		t.Fatalf("first run state %q (error %q)", st1.State, st1.Error)
	}
	if first.Cache().Stats().Executed == 0 {
		t.Fatal("first run executed nothing; the test premise is broken")
	}
	want := fetchArtifacts(t, fts.URL, st1)

	// "Restart": a brand-new server process state over the same store
	// directory. Its memory tier is empty; only the store survives.
	second := New(Config{Cache: scenario.NewCellCache(dir, 128), Workers: 2})
	sts := newServerOn(t, second)
	st2 := runCampaign(t, sts.URL, shardCampaign)
	if st2.State != StateDone {
		t.Fatalf("second run state %q (error %q)", st2.State, st2.Error)
	}
	stats := second.Cache().Stats()
	if stats.Executed != 0 {
		t.Errorf("restarted server executed %d cells, want 0 (stats %+v)", stats.Executed, stats)
	}
	if stats.DiskHits == 0 {
		t.Error("restarted server reports no store hits")
	}
	if st2.Cells.Executed != 0 {
		t.Errorf("job status reports %d executed cells, want 0", st2.Cells.Executed)
	}
	got := fetchArtifacts(t, sts.URL, st2)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("artifact sets differ: %d vs %d", len(got), len(want))
	}
	for name, wantCSV := range want {
		if got[name] != wantCSV {
			t.Errorf("artifact %s differs across the restart", name)
		}
	}
}

// TestServerLeavesNoGoroutines checks that the server stops every
// goroutine it starts (job runners and their worker pools, coordinator
// dispatch and its shard round-trips, the HTTP serving itself) after a
// drain to idle, after a shutdown whose drain deadline passes with a
// shard round-trip still in flight, and after a job is cancelled while
// its dispatch waits out a retry backoff.
func TestServerLeavesNoGoroutines(t *testing.T) {
	settled := func(what string, start int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > start {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines, started with %d", what, runtime.NumGoroutine(), start)
			}
			time.Sleep(time.Millisecond)
		}
	}
	awaitIdle := func(srv *Server, d time.Duration) bool {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		return srv.AwaitIdle(ctx)
	}
	submit := func(base, campaign string) string {
		t.Helper()
		var created struct {
			ID string `json:"id"`
		}
		if code, _ := postJSON(t, base+"/v1/campaigns", campaign, &created); code != http.StatusAccepted {
			t.Fatalf("create: code %d", code)
		}
		return created.ID
	}
	start := runtime.NumGoroutine()

	// Drain: a campaign runs to completion on a worker pool, then the
	// server drains to idle and stops serving.
	srv := New(Config{Cache: scenario.NewCellCache("", 0), Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	if st := runCampaign(t, ts.URL, shardCampaign); st.State != StateDone {
		t.Fatalf("job state %q (error %q), want done", st.State, st.Error)
	}
	srv.BeginDrain()
	if !awaitIdle(srv, 5*time.Second) {
		t.Fatal("a drained server with no live job did not go idle")
	}
	ts.Close()
	settled("a drain", start)

	// Shutdown past the drain deadline, as ftserve runs it: the job's
	// shard hangs at its worker until FailLiveJobs cancels the round-trip,
	// then http.Server.Shutdown stops serving.
	arrived := make(chan struct{}, 1)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Past the body, the server watches the connection, so the
		// request context ends when the coordinator gives up.
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-r.Context().Done()
	}))
	coord := New(Config{
		Cache:       scenario.NewCellCacheStore(store.NewMemory(), 128),
		WorkerURLs:  []string{hung.URL},
		ShardClient: &http.Client{Timeout: 30 * time.Second},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	submit("http://"+ln.Addr().String(), e2eCampaign)
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("no shard reached the worker")
	}
	coord.BeginDrain()
	if awaitIdle(coord, 50*time.Millisecond) {
		t.Fatal("the coordinator went idle with a shard in flight")
	}
	if n := coord.FailLiveJobs("server shutdown: drain deadline exceeded"); n != 1 {
		t.Fatalf("failed %d live jobs, want 1", n)
	}
	if !awaitIdle(coord, 5*time.Second) {
		t.Fatal("the failed job's runner did not return")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	<-serveErr
	hung.Close()
	settled("a shutdown past its drain deadline", start)

	// Job cancel: every shard is refused with Retry-After: 30, so the
	// dispatch waits in backoff; cancelling the job ends the wait and the
	// run without any drain.
	worker := httptest.NewServer(New(Config{Cache: scenario.NewCellCacheStore(store.NewMemory(), 128), Workers: 2}).Handler())
	rt := chaos.NewTransport(nil, chaos.Faults{Seed: 7, Status429Rate: 1, RetryAfterSec: 30})
	coord = New(Config{
		Cache:       scenario.NewCellCacheStore(store.NewMemory(), 128),
		WorkerURLs:  []string{worker.URL},
		ShardClient: &http.Client{Transport: rt, Timeout: 10 * time.Second},
	})
	cts := httptest.NewServer(coord.Handler())
	id := submit(cts.URL, e2eCampaign)
	waitState(t, cts.URL, id, StateRunning)
	time.Sleep(100 * time.Millisecond) // let dispatch enter its backoff wait
	coord.mu.Lock()
	j := coord.jobs[id]
	coord.mu.Unlock()
	if !j.forceFail("cancelled") {
		t.Fatal("the job was not live when cancelled")
	}
	if !awaitIdle(coord, 5*time.Second) {
		t.Fatal("the cancelled job's runner did not return")
	}
	cts.Close()
	worker.Close()
	settled("a cancelled job", start)
}
