package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*.sha256 from reference runs")

// testConfig is a short run for tests: one-second phases shrink to the
// minimum of two operations (and short serve phases).
func testConfig(t *testing.T, trace bool) *config {
	t.Helper()
	return &config{seconds: 400 * time.Millisecond, trace: trace, par: 2, workdir: t.TempDir()}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables of this program equal.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the endToEnd table:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the perLayer table")
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestDigests checks the committed artifact digests against a reference
// run of each campaign workload at its default seeds (-update rewrites
// them).
func TestDigests(t *testing.T) {
	for _, file := range []string{"paper.json", "sim_cohort.json", "quickstart.json"} {
		ref, err := prepareRef(&config{}, file)
		if err != nil && !*update {
			t.Fatal(err)
		}
		if *update {
			ref.digests = nil
			if err := os.WriteFile(filepath.Join("testdata", digestFile(file)), formatDigests(ref.names, ref.csv), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if bad := ref.check(ref.names, ref.csv); len(bad) > 0 {
			t.Errorf("%s: %s", file, strings.Join(bad, "; "))
		}
	}
}

// TestSmokeEveryWorkload runs every workload briefly in both modes and
// checks that each metric named in BENCHMARK.json is printed with its
// unit, and that no operation failed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := testConfig(t, trace)
			var out, errOut bytes.Buffer
			set := resultSet{Workloads: map[string]result{}}
			if code := runSingle(cfg, w, set, "", &out, &errOut); code != 0 {
				t.Fatalf("%s (trace %v): exit %d: %s", w.name, trace, code, errOut.String())
			}
			table := endToEnd
			if trace {
				table = perLayer
			}
			for _, m := range table {
				prefix := w.name + " " + m.Name + " "
				found := false
				for _, line := range strings.Split(out.String(), "\n") {
					if strings.HasPrefix(line, prefix) && strings.HasSuffix(line, " "+m.Unit) {
						found = true
					}
				}
				if !found {
					t.Errorf("%s (trace %v): no line %q...%q", w.name, trace, prefix, m.Unit)
				}
			}
			if !strings.Contains(out.String(), w.name+" error_rate 0 fraction\n") {
				t.Errorf("%s (trace %v): error rate is not 0:\n%s", w.name, trace, out.String())
			}
			if !trace {
				for _, m := range endToEnd {
					if v := lastResult(t, out.String()).Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, v)
					}
				}
			}
		}
	}
}

// lastResult parses the JSON result line that ends a run's output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return res
}

// TestCorruptArtifactFails flips one byte of every operation's first
// artifact: the run must count the wrong outputs and exit 1.
func TestCorruptArtifactFails(t *testing.T) {
	w, _ := findWorkload("sim_cohort")
	prepare := w.prepare
	w.prepare = func(cfg *config) (func() (instance, error), error) {
		setup, err := prepare(cfg)
		if err != nil {
			return nil, err
		}
		return func() (instance, error) {
			inst, err := setup()
			if err != nil {
				return nil, err
			}
			inst.(*localCampaign).tamper = func(csv map[string][]byte) {
				csv["exp_pure"][0] ^= 1
			}
			return inst, nil
		}, nil
	}
	var out, errOut bytes.Buffer
	code := runSingle(testConfig(t, false), w, resultSet{Workloads: map[string]result{}}, "", &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	res := lastResult(t, out.String())
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("result %+v: want every operation counted as failed", res)
	}
	if strings.Contains(out.String(), "sim_cohort error_rate 0 fraction") {
		t.Error("error rate printed as 0")
	}
}

// formatDigests renders the digest file of a set of artifacts.
func formatDigests(names []string, csv map[string][]byte) []byte {
	var b bytes.Buffer
	for _, n := range names {
		sum := sha256.Sum256(csv[n])
		fmt.Fprintf(&b, "%s  %s.csv\n", hex.EncodeToString(sum[:]), n)
	}
	return b.Bytes()
}
