// Command e2ebench is the repository's end-to-end benchmark: five
// workloads over the paths users pay for — a campaign run cold and warm,
// a trace-cohort simulation campaign, POST /v1/cells under an open-loop
// load, and a sharded coordinator campaign. It measures the engine only
// from outside, through its public entry points, the Runner hooks, and
// timing wrappers around store.ResultStore and http.RoundTripper, and it
// checks every output for correctness. See README.md.
//
//	e2ebench                          every workload, each in its own process
//	e2ebench -workload paper_cold     one workload, in this process
//	e2ebench -trace 1                 per-layer metrics and a Chrome trace
//	e2ebench -compare a/ b/           compare two directories of result files
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart is the earliest moment the program can observe itself;
// spawnEnv carries the moment the parent started it, so set-up time
// includes process start.
var processStart = time.Now()

const spawnEnv = "E2EBENCH_SPAWN_NS"

// setupReps is how many times a workload sets up in one run; setup_s is
// the median. Runs shorter than 10 s (tests) set up fewer times, once
// below 2 s.
func setupReps(cfg *config) int { return min(max(int(cfg.seconds/(2*time.Second)), 1), 5) }

// config is one run's settings.
type config struct {
	seed     uint64        // 0: the workload files' own seeds
	seconds  time.Duration // length of the timed phase
	trace    bool          // per-layer run: hooks, wrappers, spans
	par      int           // workers, connections and GOMAXPROCS
	workdir  string        // holds the trace files
	traceOut string        // Chrome trace file of a traced run
}

// report collects one run's measurements.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
}

func newReport() *report { return &report{values: map[string]float64{}} }

// fail counts one failed or wrong operation and says why on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// instance is a set-up workload, ready for its timed phase.
type instance interface {
	measure(r *report) error
	close()
}

// workload builds its correctness reference once (prepare, untimed and
// outside setup_s) and returns the set-up function that setup_s times.
type workload struct {
	name    string
	why     string
	prepare func(cfg *config) (func() (instance, error), error)
}

// workloads lists the benchmark's workloads in run order.
var workloads = []workload{
	{"paper_cold", "the paper's Section V campaign from scratch: execute, encode, checksum, store put", preparePaperCold},
	{"paper_warm", "the same campaign over a filled store with a cold LRU: expand, hash, store get, verify, decode, assemble", preparePaperWarm},
	{"sim_cohort", "trace-cohort simulation heatmaps: arena build and replica walks dominate", prepareSimCohort},
	{"serve_cells", "open-loop POST /v1/cells, 70% memory hits and 30% executions: per-request HTTP, JSON, admission, LRU", prepareServeCells},
	{"coord_quickstart", "a coordinator and two workers over loopback: shard HTTP and the remote store dominate", prepareCoordQuickstart},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the JSON shape of one workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultSet is the JSON file of one full set.
type resultSet struct {
	Rev       string            `json:"rev,omitempty"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Workloads map[string]result `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (default: every workload, each in its own process)")
	seed := fs.Uint64("seed", 0, "workload seed; 0 keeps the seeds of the workload files")
	seconds := fs.Int("seconds", 12, "length of each workload's timed phase in seconds")
	trace := fs.Int("trace", 0, "1: per-layer run (hooks, wrappers, spans, Chrome trace)")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "traces"), "directory for the Chrome trace files of traced runs")
	out := fs.String("o", "", "also write the results as JSON to this file")
	rev := fs.String("rev", "", "revision label stored in the -o file")
	compare := fs.Bool("compare", false, "compare two directories of result files: -compare a/ b/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2ebench: -compare needs two directories")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: usage: e2ebench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-o file]")
		return 2
	}
	par := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(par)
	cfg := &config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		par:     par,
		workdir: *workdir,
	}
	set := resultSet{Rev: *rev, Seed: *seed, Seconds: *seconds, Trace: *trace, Workloads: map[string]result{}}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *name)
			return 2
		}
		return runSingle(cfg, w, set, *out, stdout, stderr)
	}
	code := 0
	for _, w := range workloads {
		res, err := runChild(args, w.name, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		set.Workloads[w.name] = res
		if !res.Correct {
			code = 1
		}
	}
	if err := writeSet(*out, set); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	return code
}

// runSingle runs one workload in this process and prints its metric lines
// and, last, its result as one JSON line. It returns 1 when the workload
// could not run or produced a wrong output.
func runSingle(cfg *config, w workload, set resultSet, out string, stdout, stderr io.Writer) int {
	cfg.traceOut = filepath.Join(cfg.workdir, "trace-"+w.name+".json")
	res, err := runOne(cfg, w)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	printLines(stdout, w.name, res)
	set.Workloads[w.name] = res
	if err := writeSet(out, set); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload in this process: reference, set-up (timed
// setupReps times), timed phase, and the output metrics of the run's mode.
func runOne(cfg *config, w workload) (result, error) {
	setup, err := w.prepare(cfg)
	if err != nil {
		return result{}, fmt.Errorf("prepare: %w", err)
	}
	var setupS []float64
	var inst instance
	for i := 0; i < setupReps(cfg); i++ {
		if inst != nil {
			inst.close()
		}
		t := time.Now()
		if inst, err = setup(); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	rep := newReport()
	err = inst.measure(rep)
	inst.close()
	if err != nil {
		return result{}, fmt.Errorf("measure: %w", err)
	}
	rep.values["setup_s"] = spawnOffset().Seconds() + median(setupS)
	rep.values["peak_rss_mb"] = peakRSSMB()

	table := endToEnd
	if cfg.trace {
		table = perLayer
	}
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range table {
		v, ok := rep.values[m.Name]
		if !ok && !cfg.trace {
			return result{}, fmt.Errorf("workload did not measure %s", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// runChild runs one workload in a fresh process of this binary, forwards
// its metric lines, and returns its result line.
func runChild(args []string, name string, stdout, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	childArgs := append(stripFlag(args, "o", "rev"), "-workload", name)
	cmd := exec.Command(self, childArgs...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", spawnEnv, time.Now().UnixNano()))
	cmd.Stderr = stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return result{}, runErr
		}
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	return res, nil
}

// stripFlag removes the named flags (and their values) from args.
func stripFlag(args []string, names ...string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		key, _, hasValue := strings.Cut(a, "=")
		drop := false
		for _, n := range names {
			if key == n && strings.HasPrefix(args[i], "-") {
				drop = true
			}
		}
		if !drop {
			out = append(out, args[i])
			continue
		}
		if !hasValue {
			i++ // skip the separate value
		}
	}
	return out
}

// printLines prints every metric of a run as "workload metric value unit",
// plus the run's error rate.
func printLines(w io.Writer, name string, res result) {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range table {
			if v, ok := res.Metrics[m.Name]; ok {
				fmt.Fprintf(w, "%s %s %s %s\n", name, m.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
			}
		}
	}
	fmt.Fprintf(w, "%s error_rate %s fraction\n", name,
		strconv.FormatFloat(float64(res.Failed)/float64(max(res.Attempted, 1)), 'g', -1, 64))
}

func writeSet(path string, set resultSet) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spawnOffset is the time from the parent starting this process to the
// process observing itself (0 when no parent recorded the moment).
func spawnOffset() time.Duration {
	ns, err := strconv.ParseInt(os.Getenv(spawnEnv), 10, 64)
	if err != nil {
		return 0
	}
	d := time.Duration(processStart.UnixNano() - ns)
	if d < 0 || d > time.Minute {
		return 0
	}
	return d
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
