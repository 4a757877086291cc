package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"abftckpt/internal/scenario"
)

// e2eCampaign is a small all-analytic campaign: fast, deterministic, and
// covering a heatmap, a table, and a two-artifact scaling scenario.
const e2eCampaign = `{
  "name": "e2e",
  "scenarios": [
    {"name": "periods", "kind": "periods"},
    {"name": "hm", "kind": "heatmap", "protocol": "abft",
     "mtbf_minutes": {"values": [60, 240]}, "alphas": {"values": [0, 1]}},
    {"name": "sc", "kind": "scaling", "nodes": {"values": [10000, 1000000]},
     "series": [{"platform": "paper-fig10", "protocol": "pure"},
                {"platform": "paper-fig10", "protocol": "abft"}]}
  ]
}`

// periodsCellBody is a cheap synchronous cell request.
const periodsCellBody = `{"op": "periods", "probe": {"c": 60, "mu": 3600, "d": 60, "r": 60}}`

func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	srv := New(Config{Cache: scenario.NewCellCache(t.TempDir(), 128), Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// postJSON posts a body and decodes the JSON response into out.
func postJSON(t *testing.T, url, body string, out any) (int, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
	}
	return resp.StatusCode
}

// waitDone polls the job until it reaches a terminal state.
func waitDone(t *testing.T, base, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st jobStatus
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("job status code %d", code)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCampaignHappyPath drives the full async flow: submit, poll to
// completion, verify per-scenario progress, and stream every artifact,
// comparing bytes against the engine run directly (the golden source).
func TestCampaignHappyPath(t *testing.T) {
	ts, _ := newTestServer(t)

	var created struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
	}
	code, _ := postJSON(t, ts.URL+"/v1/campaigns", e2eCampaign, &created)
	if code != http.StatusAccepted {
		t.Fatalf("create: code %d", code)
	}
	if created.ID == "" || created.StatusURL != "/v1/jobs/"+created.ID {
		t.Fatalf("create response: %+v", created)
	}

	st := waitDone(t, ts.URL, created.ID)
	if st.State != StateDone {
		t.Fatalf("job state %q (error %q), want done", st.State, st.Error)
	}
	if st.Cells.Total == 0 || st.Cells.Done != st.Cells.Total {
		t.Errorf("cells %d/%d, want all done", st.Cells.Done, st.Cells.Total)
	}
	if st.Cells.Cached+st.Cells.Executed != st.Cells.Total {
		t.Errorf("cached %d + executed %d != total %d", st.Cells.Cached, st.Cells.Executed, st.Cells.Total)
	}
	if len(st.Scenarios) != 3 {
		t.Fatalf("scenarios: %+v", st.Scenarios)
	}
	for _, sc := range st.Scenarios {
		if sc.State != "done" || sc.Done != sc.Total || sc.Total == 0 {
			t.Errorf("scenario %q: %+v, want done with all cells", sc.Name, sc)
		}
	}
	wantArtifacts := []string{"periods", "hm", "sc_waste", "sc_faults"}
	if len(st.Artifacts) != len(wantArtifacts) {
		t.Fatalf("artifacts: %+v", st.Artifacts)
	}

	// Golden bytes: run the same campaign through the engine directly.
	campaign, err := scenario.Load(strings.NewReader(e2eCampaign))
	if err != nil {
		t.Fatal(err)
	}
	runner := scenario.Runner{}
	rep, err := runner.Run(campaign)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][]byte{}
	for _, a := range rep.Artifacts {
		var buf bytes.Buffer
		if err := a.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		golden[a.Name] = buf.Bytes()
	}

	for i, name := range wantArtifacts {
		if st.Artifacts[i].Name != name {
			t.Errorf("artifact %d = %q, want %q", i, st.Artifacts[i].Name, name)
		}
		wantURL := "/v1/jobs/" + created.ID + "/artifacts/" + name
		if st.Artifacts[i].URL != wantURL {
			t.Errorf("artifact URL %q, want %q", st.Artifacts[i].URL, wantURL)
		}
		// Stream with and without the .csv suffix; bytes must match the
		// engine's CSV exactly.
		for _, suffix := range []string{"", ".csv"} {
			resp, err := http.Get(ts.URL + wantURL + suffix)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("artifact %s%s: code %d", name, suffix, resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
				t.Errorf("artifact %s: Content-Type %q", name, ct)
			}
			if !bytes.Equal(body, golden[name]) {
				t.Errorf("artifact %s%s differs from the engine's CSV:\n%s\n----\n%s", name, suffix, body, golden[name])
			}
		}
	}
}

// TestCampaignValidationErrors checks invalid submissions get a 400 with a
// field-level error message.
func TestCampaignValidationErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed JSON", `{"name": `, "parse campaign"},
		{"unknown field", `{"name": "x", "bogus": 1, "scenarios": [{"name": "p", "kind": "periods"}]}`, "bogus"},
		{"no scenarios", `{"name": "x", "scenarios": []}`, "no scenarios"},
		{"misplaced field", `{"name": "x", "scenarios": [{"name": "h", "kind": "heatmap", "protocol": "abft", "reps": 3}]}`, `"reps"`},
		{"unknown platform", `{"name": "x", "scenarios": [{"name": "h", "kind": "heatmap", "protocol": "abft", "platform": "nope"}]}`, "nope"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e struct {
				Error string `json:"error"`
			}
			code, _ := postJSON(t, ts.URL+"/v1/campaigns", tc.body, &e)
			if code != http.StatusBadRequest {
				t.Fatalf("code %d, want 400", code)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
}

// TestCampaignNonFiniteParamsRejected submits a campaign whose inputs are
// all finite but whose MTBF overflows to +Inf once converted to seconds. It
// must be refused up front with a 400 naming the scenario, not accepted as
// a job that later cannot be keyed, and the server must keep serving.
func TestCampaignNonFiniteParamsRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"name":"x","scenarios":[{"name":"h","kind":"heatmap","protocol":"pure","output":"model",` +
		`"mtbf_minutes":{"values":[1e307]},"alphas":{"values":[0.5]}}]}`
	var e struct {
		Error string `json:"error"`
	}
	code, _ := postJSON(t, ts.URL+"/v1/campaigns", body, &e)
	if code != http.StatusBadRequest {
		t.Fatalf("code %d, want 400", code)
	}
	if !strings.Contains(e.Error, `scenario "h"`) || !strings.Contains(e.Error, "finite") {
		t.Errorf("error %q does not name the scenario and the non-finite value", e.Error)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/cells", periodsCellBody, nil); code != http.StatusOK {
		t.Errorf("cell after the rejected campaign: code %d, want 200", code)
	}
}

// TestDegenerateShapesRejected posts distribution shapes whose laws break
// down numerically at an ordinary MTBF (a constructor panic or arrivals
// that never advance) to both endpoints. Each must be a 400 up front, not
// a job or a cell that takes a runner worker down.
func TestDegenerateShapesRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, d := range []string{
		`{"name":"weibull","shape":0.001}`,
		`{"name":"lognormal","shape":1e200}`,
		`{"name":"gamma","shape":1e-300}`,
	} {
		var e struct {
			Error string `json:"error"`
		}
		campaign := `{"name":"x","scenarios":[{"name":"h","kind":"heatmap","protocol":"pure","output":"sim","reps":4,` +
			`"distribution":` + d + `,"mtbf_minutes":{"values":[60]},"alphas":{"values":[0.5]}}]}`
		if code, _ := postJSON(t, ts.URL+"/v1/campaigns", campaign, &e); code != http.StatusBadRequest ||
			!strings.Contains(e.Error, `scenario "h"`) {
			t.Errorf("campaign with %s: code %d error %q, want 400 naming the scenario", d, code, e.Error)
		}
		cell := `{"op": "sim", "protocol": "pure", "seed": 1, "dist": ` + d + `,
			"params": {"T0": 604800, "Alpha": 0.5, "Mu": 3600, "C": 600, "R": 600, "D": 60, "Rho": 0.8, "Phi": 1.03, "Recons": 2},
			"epochs": 1, "reps": 4}`
		if code, _ := postJSON(t, ts.URL+"/v1/cells", cell, &e); code != http.StatusBadRequest {
			t.Errorf("cell with %s: code %d, want 400", d, code)
		}
	}
}

// TestUnknownJobAndArtifact checks 404s for unknown jobs and artifacts.
func TestUnknownJobAndArtifact(t *testing.T) {
	ts, _ := newTestServer(t)
	var e struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-nope", &e); code != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", code)
	}
	if e.Error == "" {
		t.Error("unknown job: empty error body")
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-nope/artifacts/x.csv", &e); code != http.StatusNotFound {
		t.Errorf("artifact of unknown job: code %d, want 404", code)
	}

	// A real job, but an artifact that does not exist.
	var created struct {
		ID string `json:"id"`
	}
	postJSON(t, ts.URL+"/v1/campaigns", e2eCampaign, &created)
	waitDone(t, ts.URL, created.ID)
	if code := getJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/artifacts/nope.csv", &e); code != http.StatusNotFound {
		t.Errorf("unknown artifact: code %d, want 404", code)
	}
	if !strings.Contains(e.Error, "nope") {
		t.Errorf("unknown artifact error %q does not name the artifact", e.Error)
	}
}

// TestCellWarmPath is the warm-path acceptance proof over HTTP: the first
// POST /v1/cells executes, a repeat is served from the in-memory LRU with
// no disk read and no execution, counters telling the story.
func TestCellWarmPath(t *testing.T) {
	ts, srv := newTestServer(t)

	var first cellResponse
	code, hdr := postJSON(t, ts.URL+"/v1/cells", periodsCellBody, &first)
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if first.Cache != scenario.TierExec || hdr.Get("X-Cache") != "exec" {
		t.Fatalf("cold cell tier %q / header %q, want exec", first.Cache, hdr.Get("X-Cache"))
	}
	if first.Result.Periods == nil {
		t.Fatal("cold cell: no periods result")
	}
	cold := srv.Cache().Stats()
	if cold.Executed != 1 {
		t.Fatalf("cold stats: %+v", cold)
	}

	var second cellResponse
	code, hdr = postJSON(t, ts.URL+"/v1/cells", periodsCellBody, &second)
	if code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if second.Cache != scenario.TierMem || hdr.Get("X-Cache") != "mem" {
		t.Errorf("warm cell tier %q / header %q, want mem", second.Cache, hdr.Get("X-Cache"))
	}
	warm := srv.Cache().Stats()
	if warm.Executed != cold.Executed {
		t.Errorf("repeat request executed the cell: %+v", warm)
	}
	if warm.DiskReads != cold.DiskReads {
		t.Errorf("repeat request read disk: %+v", warm)
	}
	if warm.MemHits != cold.MemHits+1 {
		t.Errorf("repeat request not served from memory: %+v", warm)
	}
	if second.Cell != first.Cell {
		t.Errorf("cell hash changed between identical requests")
	}
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if !bytes.Equal(a, b) {
		t.Errorf("results differ: %s vs %s", a, b)
	}
}

// TestCellConcurrentExecutesOnce checks N concurrent identical cell
// requests execute the cell exactly once (coalesced by singleflight or
// served from memory), all observing the same result.
func TestCellConcurrentExecutesOnce(t *testing.T) {
	srv := New(Config{Cache: scenario.NewCellCache("", 64), Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A mildly expensive simulation cell so requests overlap in flight.
	body := `{"op": "sim", "protocol": "abft", "seed": 9,
		"params": {"T0": 604800, "Alpha": 0.8, "Mu": 7200, "C": 600, "R": 600, "D": 60, "Rho": 0.8, "Phi": 1.03, "Recons": 2},
		"epochs": 1, "reps": 40}`

	const n = 16
	var wg sync.WaitGroup
	results := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("code %d: %s", resp.StatusCode, data)
				return
			}
			var cr cellResponse
			if err := json.Unmarshal(data, &cr); err != nil {
				errs[i] = err
				return
			}
			out, _ := json.Marshal(cr.Result)
			results[i] = string(out)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("request %d saw a different result", i)
		}
	}
	// The decisive counter: across all concurrent identical requests the
	// cell executed exactly once — the rest coalesced into the in-flight
	// execution or hit the memory tier.
	stats := srv.Cache().Stats()
	if stats.Executed != 1 {
		t.Errorf("cell executed %d times across %d concurrent requests, want 1 (stats %+v)", stats.Executed, n, stats)
	}
	if stats.Coalesced+stats.MemHits != n-1 {
		t.Errorf("coalesced %d + mem hits %d != %d", stats.Coalesced, stats.MemHits, n-1)
	}
}

// TestCellValidationErrors checks synchronous cell evaluation rejects bad
// input with field-level 400s.
func TestCellValidationErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed", `{`, "parse cell"},
		{"unknown field", `{"op": "periods", "bogus": 1, "probe": {"c": 1, "mu": 60, "d": 0, "r": 0}}`, "bogus"},
		{"unknown op", `{"op": "nope"}`, "unknown cell op"},
		{"missing probe", `{"op": "periods"}`, "needs a probe"},
		{"bad protocol", `{"op": "model", "protocol": "nope", "params": {"T0": 1, "Alpha": 0.5, "Mu": 60, "Phi": 1}}`, "unknown protocol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e struct {
				Error string `json:"error"`
			}
			code, _ := postJSON(t, ts.URL+"/v1/cells", tc.body, &e)
			if code != http.StatusBadRequest {
				t.Fatalf("code %d, want 400 (error %q)", code, e.Error)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
}

// TestPlatformsAndHealth covers the catalogue and liveness endpoints.
func TestPlatformsAndHealth(t *testing.T) {
	ts, _ := newTestServer(t)
	var plats struct {
		Fixed   []platformInfo `json:"fixed"`
		Scaling []platformInfo `json:"scaling"`
	}
	if code := getJSON(t, ts.URL+"/v1/platforms", &plats); code != http.StatusOK {
		t.Fatalf("platforms code %d", code)
	}
	if len(plats.Fixed) == 0 || len(plats.Scaling) == 0 {
		t.Errorf("platform catalogue empty: %+v", plats)
	}
	found := false
	for _, p := range plats.Fixed {
		if p.Name == "paper-fig7" {
			found = true
		}
	}
	if !found {
		t.Error("paper-fig7 missing from the catalogue")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz code %d", resp.StatusCode)
	}

	var stats struct {
		Cache   scenario.CacheStats `json:"cache"`
		Cohorts CohortStats         `json:"cohorts"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Errorf("stats code %d", code)
	}
}

// TestStatsCountsCohorts runs a campaign whose simulation cells share
// failure processes (share_traces) and checks the trace-cohort work shows
// up in /v1/stats.
func TestStatsCountsCohorts(t *testing.T) {
	ts, _ := newTestServer(t)
	const cohortCampaign = `{
	  "name": "cohorts",
	  "seed": 3,
	  "reps": 8,
	  "scenarios": [
	    {"name": "sim_pure", "kind": "heatmap", "output": "sim", "protocol": "pure",
	     "share_traces": true,
	     "mtbf_minutes": {"values": [120]}, "alphas": {"values": [0.5]}},
	    {"name": "sim_abft", "kind": "heatmap", "output": "sim", "protocol": "abft",
	     "share_traces": true,
	     "mtbf_minutes": {"values": [120]}, "alphas": {"values": [0.5]}}
	  ]
	}`
	var created struct {
		ID string `json:"id"`
	}
	if code, _ := postJSON(t, ts.URL+"/v1/campaigns", cohortCampaign, &created); code != http.StatusAccepted {
		t.Fatalf("create: code %d", code)
	}
	if st := waitDone(t, ts.URL, created.ID); st.State != StateDone {
		t.Fatalf("job state %q (error %q)", st.State, st.Error)
	}
	var stats struct {
		Cohorts CohortStats `json:"cohorts"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats code %d", code)
	}
	if stats.Cohorts.Built != 1 || stats.Cohorts.ReplayedCells != 2 {
		t.Errorf("cohort stats = %+v, want 1 cohort walked and 2 cells in it", stats.Cohorts)
	}
}

// TestStatsCountsAdaptive runs an adaptive-precision campaign and checks
// the replica-savings counters show up in /v1/stats and /metrics.
func TestStatsCountsAdaptive(t *testing.T) {
	ts, _ := newTestServer(t)
	const adaptiveCampaign = `{
	  "name": "adaptive",
	  "seed": 3,
	  "reps": 64,
	  "scenarios": [
	    {"name": "sim_abft", "kind": "heatmap", "output": "sim", "protocol": "abft",
	     "share_traces": true,
	     "precision": {"rel_ci": 0.2, "batch": 16},
	     "mtbf_minutes": {"values": [120]}, "alphas": {"values": [0.5]}}
	  ]
	}`
	var created struct {
		ID string `json:"id"`
	}
	if code, _ := postJSON(t, ts.URL+"/v1/campaigns", adaptiveCampaign, &created); code != http.StatusAccepted {
		t.Fatalf("create: code %d", code)
	}
	if st := waitDone(t, ts.URL, created.ID); st.State != StateDone {
		t.Fatalf("job state %q (error %q)", st.State, st.Error)
	}
	var stats struct {
		Adaptive AdaptiveStats `json:"adaptive"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats code %d", code)
	}
	if stats.Adaptive.Cells != 1 || stats.Adaptive.ReplicasCap != 64 {
		t.Errorf("adaptive stats = %+v, want 1 cell with cap 64", stats.Adaptive)
	}
	if stats.Adaptive.ReplicasUsed <= 0 || stats.Adaptive.ReplicasUsed > stats.Adaptive.ReplicasCap {
		t.Errorf("replicas used %d outside (0, %d]", stats.Adaptive.ReplicasUsed, stats.Adaptive.ReplicasCap)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, metric := range []string{"ftserve_adaptive_cells_total 1", "ftserve_adaptive_replicas_cap_total 64"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("metrics lack %q", metric)
		}
	}
}

// TestCellRejectsOversizedSimulation checks the network-facing cell
// endpoint refuses a simulation budget that would pin a worker.
func TestCellRejectsOversizedSimulation(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"op": "sim", "protocol": "abft", "seed": 1,
		"params": {"T0": 604800, "Alpha": 0.8, "Mu": 7200, "C": 600, "R": 600, "D": 60, "Rho": 0.8, "Phi": 1.03, "Recons": 2},
		"epochs": 10000, "reps": 2000000}`
	var e struct {
		Error string `json:"error"`
	}
	code, _ := postJSON(t, ts.URL+"/v1/cells", body, &e)
	if code != http.StatusBadRequest {
		t.Fatalf("code %d, want 400", code)
	}
	if !strings.Contains(e.Error, "reps") {
		t.Errorf("error %q does not mention the reps bound", e.Error)
	}
}

// TestOversizedBodyRejected checks the body-size bound on the POST
// endpoints surfaces as 413 (not a generic 400), naming the limit.
func TestOversizedBodyRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	big := strings.Repeat(" ", maxBodyBytes+1)
	for _, path := range []string{"/v1/campaigns", "/v1/cells"} {
		var e struct {
			Error string `json:"error"`
		}
		code, _ := postJSON(t, ts.URL+path, big, &e)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body got code %d, want 413", path, code)
		}
		if !strings.Contains(e.Error, fmt.Sprint(maxBodyBytes)) {
			t.Errorf("%s: error %q does not name the byte limit", path, e.Error)
		}
	}
	// An oversized campaign must not leak its reserved queue slot.
	var stats struct {
		Server ServerStats `json:"server"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats code %d", code)
	}
	if stats.Server.QueuedJobs != 0 {
		t.Errorf("queued_jobs = %d after rejected submissions, want 0", stats.Server.QueuedJobs)
	}
}

// TestCellServedDespiteBrokenCacheDir is the serving-path acceptance
// check for graceful cache degradation: with the disk tier unwritable, a
// cold POST /v1/cells still returns 200 with X-Cache: exec, and
// /v1/stats reports the store error — no 500s.
func TestCellServedDespiteBrokenCacheDir(t *testing.T) {
	dir := t.TempDir()
	var spec scenario.CellSpec
	if err := json.Unmarshal([]byte(periodsCellBody), &spec); err != nil {
		t.Fatal(err)
	}
	// Block the cell's shard directory with a regular file, which defeats
	// storeCell even when tests run as root (unlike a read-only chmod).
	if err := os.WriteFile(filepath.Join(dir, spec.Hash()[:2]), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Cache: scenario.NewCellCache(dir, 64)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var res cellResponse
	code, hdr := postJSON(t, ts.URL+"/v1/cells", periodsCellBody, &res)
	if code != http.StatusOK {
		t.Fatalf("broken cache dir turned a successful execution into code %d", code)
	}
	if hdr.Get("X-Cache") != "exec" {
		t.Errorf("X-Cache = %q, want exec", hdr.Get("X-Cache"))
	}
	if res.Result.Periods == nil {
		t.Error("no result despite 200")
	}
	var stats struct {
		Cache scenario.CacheStats `json:"cache"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats code %d", code)
	}
	if stats.Cache.StoreErrors == 0 {
		t.Errorf("store error not observable in /v1/stats: %+v", stats.Cache)
	}
	// The result landed in the memory tier: a repeat is served warm.
	code, hdr = postJSON(t, ts.URL+"/v1/cells", periodsCellBody, &res)
	if code != http.StatusOK || hdr.Get("X-Cache") != "mem" {
		t.Errorf("repeat: code %d X-Cache %q, want 200/mem", code, hdr.Get("X-Cache"))
	}
}

// TestCellAdmissionRejects429 checks the in-flight cell gate: with every
// slot taken, POST /v1/cells gets 429 + Retry-After, and succeeds again
// once a slot frees. The semaphore is filled directly so the test is
// deterministic.
func TestCellAdmissionRejects429(t *testing.T) {
	srv := New(Config{Cache: scenario.NewCellCache("", 64), MaxInflightCells: 2, AdmissionWait: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		srv.cellSem <- struct{}{}
	}

	var e struct {
		Error string `json:"error"`
	}
	code, hdr := postJSON(t, ts.URL+"/v1/cells", periodsCellBody, &e)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated gate: code %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(e.Error, "retry") {
		t.Errorf("error %q does not tell the client to retry", e.Error)
	}
	var stats struct {
		Server ServerStats `json:"server"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Server.InflightCells != 2 {
		t.Errorf("inflight_cells = %d, want 2", stats.Server.InflightCells)
	}
	rejected := int64(0)
	for _, ep := range stats.Server.Endpoints {
		if ep.Endpoint == "cells" {
			rejected = ep.Rejected
		}
	}
	if rejected != 1 {
		t.Errorf("cells endpoint rejected = %d, want 1", rejected)
	}

	<-srv.cellSem
	if code, _ := postJSON(t, ts.URL+"/v1/cells", periodsCellBody, nil); code != http.StatusOK {
		t.Errorf("after a slot freed: code %d, want 200", code)
	}
}

// TestCampaignAdmissionRejects429 checks the bounded job queue: with the
// run slots held and the queue full, a further submission gets 429 +
// Retry-After; once capacity frees, the queued job completes.
func TestCampaignAdmissionRejects429(t *testing.T) {
	srv := New(Config{Cache: scenario.NewCellCache("", 64), MaxRunning: 1, MaxQueued: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.runSem <- struct{}{} // hold the only run slot
	small := `{"name": "tiny", "scenarios": [{"name": "p", "kind": "periods"}]}`

	var first struct {
		ID string `json:"id"`
	}
	if code, _ := postJSON(t, ts.URL+"/v1/campaigns", small, &first); code != http.StatusAccepted {
		t.Fatalf("first submission: code %d, want 202", code)
	}
	var e struct {
		Error string `json:"error"`
	}
	code, hdr := postJSON(t, ts.URL+"/v1/campaigns", small, &e)
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue full: code %d, want 429 (error %q)", code, e.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var stats struct {
		Server ServerStats `json:"server"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Server.QueuedJobs != 1 {
		t.Errorf("queued_jobs = %d, want 1", stats.Server.QueuedJobs)
	}

	<-srv.runSem // free the slot; the queued job may now run
	if st := waitDone(t, ts.URL, first.ID); st.State != StateDone {
		t.Fatalf("queued job ended %q (%s)", st.State, st.Error)
	}
}

// TestJobEvictionOnFinish is the regression test for eviction running
// only on submission: when jobs finish past MaxJobs, the oldest finished
// one must be evicted without waiting for the next POST.
func TestJobEvictionOnFinish(t *testing.T) {
	srv := New(Config{Cache: scenario.NewCellCache("", 256), Workers: 1, MaxJobs: 1, MaxRunning: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Both jobs are submitted while the first is still live, so the
	// submission-time eviction pass cannot fire. MaxRunning: 1 serializes
	// them: when the first finishes, the second is still queued (not
	// evictable) — only the finish-time pass can evict the first, and it
	// must do so before the second ever reaches "done".
	slow := `{"name": "slow", "reps": 200, "scenarios": [{"name": "sn", "kind": "sensitivity",
		"cases": [{"name": "w", "dist": "weibull", "shape": 0.7}]}]}`
	fast := `{"name": "fast", "scenarios": [{"name": "p", "kind": "periods"}]}`
	var first, second struct {
		ID string `json:"id"`
	}
	if code, _ := postJSON(t, ts.URL+"/v1/campaigns", slow, &first); code != http.StatusAccepted {
		t.Fatalf("first: code %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/campaigns", fast, &second); code != http.StatusAccepted {
		t.Fatalf("second: code %d", code)
	}
	if st := waitDone(t, ts.URL, second.ID); st.State != StateDone {
		t.Fatalf("second job ended %q (%s)", st.State, st.Error)
	}
	// No further submissions happened, yet the first (finished) job is
	// gone: eviction ran when it finished, not on the next POST.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+first.ID, nil); code != http.StatusNotFound {
		t.Errorf("oldest finished job not evicted on finish: code %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+second.ID, nil); code != http.StatusOK {
		t.Errorf("newest job evicted: code %d", code)
	}
}

// TestMetricsEndpoint drives a little traffic and checks the Prometheus
// exposition carries request counters, latency summaries, admission
// gauges, and the cache counters.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/v1/cells", periodsCellBody, nil)
	postJSON(t, ts.URL+"/v1/cells", periodsCellBody, nil)
	getJSON(t, ts.URL+"/v1/stats", nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`ftserve_requests_total{endpoint="cells",status="200"} 2`,
		`ftserve_requests_total{endpoint="stats",status="200"} 1`,
		`ftserve_request_duration_ms{endpoint="cells",quantile="0.99"}`,
		`ftserve_request_duration_ms_count{endpoint="cells"} 2`,
		`ftserve_cell_duration_ms{tier="exec",quantile="0.5"}`,
		`ftserve_cell_duration_ms{tier="mem",quantile="0.5"}`,
		`ftserve_rejected_total{endpoint="cells"} 0`,
		`ftserve_cache_requests_total{tier="mem"} 1`,
		`ftserve_cache_requests_total{tier="exec"} 1`,
		"ftserve_cache_store_errors_total 0",
		"ftserve_jobs_queued 0",
		"ftserve_jobs_running 0",
		"ftserve_inflight_cells 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// The same aggregates in JSON: /v1/stats server section.
	var stats struct {
		Server ServerStats `json:"server"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats code %d", code)
	}
	var cells *LatencySummary
	for i := range stats.Server.Endpoints {
		if stats.Server.Endpoints[i].Endpoint == "cells" {
			cells = &stats.Server.Endpoints[i]
		}
	}
	if cells == nil || cells.Requests != 2 || cells.Errors != 0 {
		t.Fatalf("cells endpoint summary = %+v", cells)
	}
	if cells.P99MS < cells.P50MS || cells.MaxMS < cells.P99MS {
		t.Errorf("latency summary not monotone: %+v", cells)
	}
	if len(stats.Server.Tiers) == 0 {
		t.Error("no per-tier latency summaries")
	}
}

// TestJobsQueuePastMaxRunning checks submissions past the MaxRunning
// bound are accepted, wait in state queued, and complete once a slot
// frees.
func TestJobsQueuePastMaxRunning(t *testing.T) {
	srv := New(Config{Cache: scenario.NewCellCache("", 256), Workers: 1, MaxRunning: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A campaign slow enough to hold the single run slot briefly.
	slow := `{"name": "slow", "reps": 400, "scenarios": [{"name": "sn", "kind": "sensitivity",
		"cases": [{"name": "w", "dist": "weibull", "shape": 0.7}]}]}`
	var first, second struct {
		ID string `json:"id"`
	}
	if code, _ := postJSON(t, ts.URL+"/v1/campaigns", slow, &first); code != http.StatusAccepted {
		t.Fatalf("first: code %d", code)
	}
	// Distinct name, same shape: lands behind the first in the queue.
	if code, _ := postJSON(t, ts.URL+"/v1/campaigns",
		strings.Replace(slow, `"slow"`, `"slow2"`, 1), &second); code != http.StatusAccepted {
		t.Fatalf("second: code %d", code)
	}
	sawQueued := false
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st jobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+second.ID, &st)
		if st.State == StateQueued {
			sawQueued = true
		}
		if st.State == StateDone || st.State == StateFailed {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := waitDone(t, ts.URL, second.ID); st.State != StateDone {
		t.Fatalf("queued job ended %q (%s)", st.State, st.Error)
	}
	if st := waitDone(t, ts.URL, first.ID); st.State != StateDone {
		t.Fatalf("first job ended %q (%s)", st.State, st.Error)
	}
	if !sawQueued {
		t.Log("note: never observed the queued state (slot freed too fast); throughput assertions above still hold")
	}
}

// TestJobEviction checks finished jobs are evicted past MaxJobs.
func TestJobEviction(t *testing.T) {
	srv := New(Config{Cache: scenario.NewCellCache("", 64), MaxJobs: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	small := `{"name": "tiny", "scenarios": [{"name": "p", "kind": "periods"}]}`
	var ids []string
	for i := 0; i < 3; i++ {
		var created struct {
			ID string `json:"id"`
		}
		if code, _ := postJSON(t, ts.URL+"/v1/campaigns", small, &created); code != http.StatusAccepted {
			t.Fatalf("create %d: code %d", i, code)
		}
		waitDone(t, ts.URL, created.ID)
		ids = append(ids, created.ID)
	}
	// The oldest job is gone; the newest survives.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Errorf("oldest job still present: code %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+ids[2], nil); code != http.StatusOK {
		t.Errorf("newest job evicted: code %d", code)
	}
}

// silentMLCampaign exercises the silent-error and multi-level scenario
// kinds through the async campaign flow.
const silentMLCampaign = `{
  "name": "silentml",
  "seed": 3,
  "reps": 4,
  "scenarios": [
    {"name": "sh", "kind": "silent_heatmap", "output": "diff", "recovery": "backward",
     "mtbe_minutes": {"values": [60, 240]}, "verify_costs": {"values": [30, 300]}},
    {"name": "ml", "kind": "multilevel_scaling",
     "nodes": {"values": [1000, 100000]},
     "ml_series": [{"name": "two-level", "mtbf_at_base": 315576000,
                    "c1": 30, "r1": 30, "c2": 600, "r2": 600, "coverage": 0.8}]}
  ]
}`

// TestSilentMLCampaignAndCells drives the silent-error and multi-level
// families through both server entry points: the async campaign flow and
// synchronous cell evaluation.
func TestSilentMLCampaignAndCells(t *testing.T) {
	ts, _ := newTestServer(t)

	var created struct {
		ID string `json:"id"`
	}
	if code, _ := postJSON(t, ts.URL+"/v1/campaigns", silentMLCampaign, &created); code != http.StatusAccepted {
		t.Fatalf("create: code %d", code)
	}
	st := waitDone(t, ts.URL, created.ID)
	if st.State != StateDone {
		t.Fatalf("job state %q (error %q), want done", st.State, st.Error)
	}
	want := []string{"sh", "ml_waste", "ml_schedule"}
	if len(st.Artifacts) != len(want) {
		t.Fatalf("artifacts: %+v", st.Artifacts)
	}
	for i, name := range want {
		if st.Artifacts[i].Name != name {
			t.Errorf("artifact %d = %q, want %q", i, st.Artifacts[i].Name, name)
		}
		resp, err := http.Get(ts.URL + st.Artifacts[i].URL)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("artifact %q: code %d, %d bytes", name, resp.StatusCode, len(body))
		}
	}

	// Synchronous cells: one per new model op.
	cells := map[string]string{
		"silent_model": `{"op": "silent_model", "silent": {"recovery": "forward",
		  "params": {"W": 100000, "MuSilent": 3600, "V": 60, "C": 120, "R": 120, "F": 30, "Detect": 10}}}`,
		"ml_model": `{"op": "ml_model", "multilevel": {"W": 604800, "Mu": 50000, "D": 60,
		  "C1": 30, "R1": 30, "C2": 600, "R2": 600, "Coverage": 0.8}}`,
	}
	for op, body := range cells {
		var got struct {
			Result scenario.CellResult `json:"result"`
		}
		code, _ := postJSON(t, ts.URL+"/v1/cells", body, &got)
		if code != http.StatusOK {
			t.Fatalf("%s cell: code %d", op, code)
		}
		switch op {
		case "silent_model":
			if got.Result.SilentModel == nil || got.Result.SilentModel.Waste <= 0 {
				t.Errorf("silent_model result: %+v", got.Result.SilentModel)
			}
		case "ml_model":
			if got.Result.MLModel == nil || !got.Result.MLModel.Feasible || got.Result.MLModel.K <= 0 {
				t.Errorf("ml_model result: %+v", got.Result.MLModel)
			}
		}
	}
}
