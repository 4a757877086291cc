package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"abftckpt/internal/store"
)

const quickstart = "../../examples/campaigns/quickstart.json"

// runCmd invokes run with captured streams.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestPlatformListing(t *testing.T) {
	code, stdout, _ := runCmd(t, "-platforms")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fixed platforms", "weak-scaling platforms", "paper-fig7", "paper-fig10"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("platform listing missing %q:\n%s", want, stdout)
		}
	}
}

func TestValidateOK(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-spec", quickstart, "-validate")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "OK") || !strings.Contains(stdout, "quickstart") {
		t.Errorf("validate output: %s", stdout)
	}
}

func TestValidateRejectsBadCampaign(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	// A field-level error: heatmap specs reject simulation-only fields.
	if err := os.WriteFile(bad, []byte(`{"name":"x","scenarios":[{"name":"h","kind":"heatmap","protocol":"abft","reps":3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCmd(t, "-spec", bad, "-validate")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "reps") {
		t.Errorf("stderr does not carry the field-level error: %s", stderr)
	}
}

// cohortSpec writes a campaign whose sim cells share failure processes.
func cohortSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cohorts.json")
	const js = `{
	  "name": "cohorts",
	  "seed": 5,
	  "reps": 6,
	  "scenarios": [
	    {"name": "sp", "kind": "heatmap", "output": "sim", "protocol": "pure", "share_traces": true,
	     "mtbf_minutes": {"values": [120]}, "alphas": {"values": [0.5]}},
	    {"name": "sa", "kind": "heatmap", "output": "sim", "protocol": "abft", "share_traces": true,
	     "mtbf_minutes": {"values": [120]}, "alphas": {"values": [0.5]}}
	  ]
	}`
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A dry run over shared failure processes reports the cohort plan.
func TestDryRunReportsCohorts(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-spec", cohortSpec(t), "-dry-run")
	if code != 0 {
		t.Fatalf("dry-run exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "trace cohorts: 1 shared failure processes covering 2 sim cells") {
		t.Errorf("dry-run output missing the cohort plan:\n%s", stdout)
	}
}

func TestValidateMissingFile(t *testing.T) {
	code, _, stderr := runCmd(t, "-spec", filepath.Join(t.TempDir(), "nope.json"), "-validate")
	if code != 1 || stderr == "" {
		t.Errorf("exit %d stderr %q, want 1 with an error", code, stderr)
	}
}

func TestDryRun(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-spec", quickstart, "-dry-run")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"campaign \"quickstart\"", "waste_model_heatmap", "heatmap", "total:", "unique"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("dry-run output missing %q:\n%s", want, stdout)
		}
	}
	// A dry run must not create the output directory or any artifacts.
	if _, err := os.Stat("out"); !os.IsNotExist(err) {
		t.Error("dry run created an output directory")
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCmd(t, "-h")
	if code != 0 {
		t.Errorf("-h exit %d, want 0", code)
	}
	if !strings.Contains(stderr, "-spec") {
		t.Errorf("usage text missing: %s", stderr)
	}
}

func TestMissingSpecIsUsageError(t *testing.T) {
	code, _, _ := runCmd(t)
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

func TestUnknownFlagIsUsageError(t *testing.T) {
	code, _, stderr := runCmd(t, "-bogus")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "bogus") {
		t.Errorf("stderr does not name the bad flag: %s", stderr)
	}
}

// TestRunSmallCampaign runs a tiny campaign end to end through run(),
// checking artifacts, the manifest, and the cached rerun summary line.
func TestRunSmallCampaign(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "c.json")
	if err := os.WriteFile(spec, []byte(`{"name":"tiny","scenarios":[{"name":"pd","kind":"periods"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	code, stdout, stderr := runCmd(t, "-spec", spec, "-out", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "wrote pd (table)") {
		t.Errorf("stdout: %s", stdout)
	}
	for _, f := range []string{"pd.csv", "pd.txt", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Errorf("missing output %s: %v", f, err)
		}
	}
	// The rerun is served entirely by the cache.
	code, stdout, stderr = runCmd(t, "-spec", spec, "-out", out)
	if code != 0 {
		t.Fatalf("rerun exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "0 executed") {
		t.Errorf("rerun summary not cached: %s", stdout)
	}
}

// TestValidateExamples validates every committed example campaign (what the
// CI docs job runs).
func TestValidateExamples(t *testing.T) {
	matches, err := filepath.Glob("../../examples/campaigns/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 4 {
		t.Fatalf("found only %d example campaigns: %v", len(matches), matches)
	}
	for _, path := range matches {
		code, stdout, stderr := runCmd(t, "-spec", path, "-validate")
		if code != 0 {
			t.Errorf("%s: exit %d, stderr: %s", path, code, stderr)
		}
		if !strings.Contains(stdout, "OK") {
			t.Errorf("%s: validate output: %s", path, stdout)
		}
	}
}

// TestRunSilentMLCampaign runs the silent-error and multi-level scenario
// kinds end to end through the CLI on reduced grids.
func TestRunSilentMLCampaign(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "c.json")
	const js = `{
	  "name": "silentml",
	  "seed": 3,
	  "reps": 5,
	  "scenarios": [
	    {"name": "sh", "kind": "silent_heatmap", "output": "diff", "recovery": "forward",
	     "mtbe_minutes": {"values": [60, 240]}, "verify_costs": {"values": [30, 300]}},
	    {"name": "ml", "kind": "multilevel_scaling",
	     "nodes": {"values": [1000, 100000]},
	     "ml_series": [{"name": "two-level", "mtbf_at_base": 315576000,
	                    "c1": 30, "r1": 30, "c2": 600, "r2": 600, "coverage": 0.8}]}
	  ]
	}`
	if err := os.WriteFile(spec, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	code, stdout, stderr := runCmd(t, "-spec", spec, "-out", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"wrote sh (heatmap)", "wrote ml_waste (chart)", "wrote ml_schedule (table)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	for _, f := range []string{"sh.csv", "ml_waste.csv", "ml_schedule.csv", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Errorf("missing output %s: %v", f, err)
		}
	}
}

// readOutputs reads every file a run wrote into dir, by name.
func readOutputs(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("unexpected directory %s in %s", e.Name(), dir)
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestRunRemoteStore runs quickstart against a remote result store: the
// outputs equal a -no-cache run's, the store ends up holding one entry
// per unique cell, and a rerun is served entirely from the store.
func TestRunRemoteStore(t *testing.T) {
	mem := store.NewMemory()
	srv := httptest.NewServer(store.Handler(mem))
	t.Cleanup(srv.Close)
	dir := t.TempDir()

	local := filepath.Join(dir, "local")
	if code, _, stderr := runCmd(t, "-spec", quickstart, "-out", local, "-no-cache"); code != 0 {
		t.Fatalf("-no-cache run: exit %d, stderr: %s", code, stderr)
	}
	remote := filepath.Join(dir, "remote")
	if code, _, stderr := runCmd(t, "-spec", quickstart, "-out", remote, "-store-url", srv.URL); code != 0 {
		t.Fatalf("-store-url run: exit %d, stderr: %s", code, stderr)
	}
	want, got := readOutputs(t, local), readOutputs(t, remote)
	if len(got) != len(want) {
		t.Fatalf("remote run wrote %d files, -no-cache run %d", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s differs between the -store-url and -no-cache runs", name)
		}
	}
	var m manifest
	if err := json.Unmarshal(want["manifest.json"], &m); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != m.Unique {
		t.Errorf("store holds %d entries, want one per unique cell (%d)", mem.Len(), m.Unique)
	}

	code, stdout, stderr := runCmd(t, "-spec", quickstart, "-out", filepath.Join(dir, "rerun"), "-store-url", srv.URL)
	if code != 0 {
		t.Fatalf("rerun: exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, ", 0 executed") {
		t.Errorf("rerun not served from the store: %s", stdout)
	}
}

// TestRemoteStoreRerunRoundTrips: a warm -store-url rerun reads the store
// in a handful of batched round-trips, not one per cell. quickstart.json
// has 173 unique cells; the handler counts every /get request.
func TestRemoteStoreRerunRoundTrips(t *testing.T) {
	var gets atomic.Int64
	h := store.Handler(store.NewMemory())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/get" {
			gets.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	dir := t.TempDir()
	if code, _, stderr := runCmd(t, "-spec", quickstart, "-out", filepath.Join(dir, "cold"), "-store-url", srv.URL); code != 0 {
		t.Fatalf("cold run: exit %d, stderr: %s", code, stderr)
	}
	gets.Store(0)
	code, stdout, stderr := runCmd(t, "-spec", quickstart, "-out", filepath.Join(dir, "warm"), "-store-url", srv.URL)
	if code != 0 || !strings.Contains(stdout, ", 0 executed") {
		t.Fatalf("warm run: exit %d, stdout %s, stderr: %s", code, stdout, stderr)
	}
	if n := gets.Load(); n >= 10 {
		t.Errorf("warm rerun made %d /get requests, want fewer than 10", n)
	}
}
