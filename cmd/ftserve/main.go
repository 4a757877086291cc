// Command ftserve serves the scenario engine over HTTP: POST campaigns
// for asynchronous execution, poll job progress, download artifacts as
// CSV, and evaluate single cells synchronously. All requests share one
// two-tier cell cache (in-memory LRU + a pluggable result store), so
// identical concurrent requests execute once and hot cells never touch
// the store.
//
// The second cache tier is selected by flag: -cache uses the on-disk
// layout, -store-url a remote store served by another ftserve (mounted
// under /v1/store/ whenever a second tier exists). With -coordinator a
// server stops executing cells itself and dispatches them, one trace
// cohort at a time, to the listed worker base URLs over POST /v1/shards;
// pointing every node at one shared store deduplicates across the fleet.
//
// On SIGINT/SIGTERM the server drains: new POSTs get 503, running jobs
// get up to -drain to finish (then are failed with a shutdown reason),
// buffered store writes are flushed, and in-flight requests complete.
//
// Examples:
//
//	ftserve -addr 127.0.0.1:8080 -cache .ftcache
//	curl -X POST --data-binary @examples/campaigns/quickstart.json \
//	    http://127.0.0.1:8080/v1/campaigns
//	curl http://127.0.0.1:8080/v1/jobs/<id>
//	curl http://127.0.0.1:8080/v1/jobs/<id>/artifacts/periods.csv
//
//	# Two workers sharing a coordinator's store, and the coordinator:
//	ftserve -addr 127.0.0.1:8081 -store-url http://127.0.0.1:8080/v1/store
//	ftserve -addr 127.0.0.1:8082 -store-url http://127.0.0.1:8080/v1/store
//	ftserve -addr 127.0.0.1:8080 -cache .ftcache \
//	    -coordinator http://127.0.0.1:8081,http://127.0.0.1:8082
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"abftckpt/internal/scenario"
	"abftckpt/internal/server"
	"abftckpt/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// shutdownGrace bounds how long in-flight HTTP requests may take to
// complete after the job drain, before connections are torn down.
const shutdownGrace = 5 * time.Second

// run is the testable entry point: it parses flags, binds the listener,
// prints the resolved address to stdout and serves until the process is
// signalled (SIGINT/SIGTERM), then drains and shuts down. It returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	cacheDir := fs.String("cache", "", "on-disk cell cache directory (empty: in-memory tier only)")
	storeURL := fs.String("store-url", "", "remote result store base URL (e.g. http://host:port/v1/store); mutually exclusive with -cache")
	memCells := fs.Int("mem-cells", scenario.DefaultMemCells, "in-memory LRU capacity in cells")
	workers := fs.Int("workers", 0, "cell-level parallelism per campaign job (0: NumCPU)")
	coordinator := fs.String("coordinator", "", "comma-separated worker base URLs; dispatch campaign cells to them instead of executing locally")
	breakerThreshold := fs.Int("breaker-threshold", server.DefaultBreakerThreshold, "consecutive dispatch failures that open a worker's circuit breaker (coordinator mode)")
	maxJobs := fs.Int("max-jobs", server.DefaultMaxJobs, "retained jobs before the oldest finished one is evicted")
	maxRunning := fs.Int("max-running", server.DefaultMaxRunning, "concurrently executing campaign jobs; excess jobs queue")
	maxQueued := fs.Int("max-queued", server.DefaultMaxQueued, "queued campaign jobs before submissions get 429 + Retry-After")
	maxInflightCells := fs.Int("max-inflight-cells", server.DefaultMaxInflightCells(), "concurrent POST /v1/cells requests before 429 + Retry-After")
	admissionWait := fs.Duration("admission-wait", server.DefaultAdmissionWait, "how long a cell request may wait for a slot before 429 (negative: reject immediately)")
	drain := fs.Duration("drain", 30*time.Second, "how long running jobs may finish after SIGINT/SIGTERM before being failed")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profile campaign hot spots in place)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ftserve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *cacheDir != "" && *storeURL != "" {
		fmt.Fprintln(stderr, "ftserve: -cache and -store-url are mutually exclusive")
		return 2
	}

	// Second cache tier: disk layout, remote store, or none. The cache
	// batches its own writes: one PutBatch per executed cohort, shard or
	// cell request.
	cache := scenario.NewCellCache(*cacheDir, *memCells)
	if *storeURL != "" {
		// Verify remote reads locally: the coordinator serves framed
		// bytes verbatim, so a flipped bit on the wire or in its store
		// surfaces here as a counted corrupt miss, never a wrong result.
		cache = scenario.NewCellCacheStore(store.WithChecksum(store.NewRemote(*storeURL, nil)), *memCells)
	}

	var workerURLs []string
	for _, u := range strings.Split(*coordinator, ",") {
		if u = strings.TrimSpace(u); u != "" {
			workerURLs = append(workerURLs, u)
		}
	}

	srv := server.New(server.Config{
		Cache:            cache,
		Workers:          *workers,
		MaxJobs:          *maxJobs,
		MaxRunning:       *maxRunning,
		MaxQueued:        *maxQueued,
		MaxInflightCells: *maxInflightCells,
		AdmissionWait:    *admissionWait,
		WorkerURLs:       workerURLs,
		BreakerThreshold: *breakerThreshold,
	})
	// Resume jobs a previous process accepted but did not finish: they
	// re-run under their original ids, and the warm store turns the
	// re-run into a cache-hit sweep plus the unfinished tail.
	if n := srv.ResumeJournal(); n > 0 {
		fmt.Fprintf(stdout, "ftserve: resumed %d journaled job(s)\n", n)
	}
	handler := srv.Handler()
	if *pprofOn {
		// The profiling endpoints are mounted explicitly (not via the
		// net/http/pprof DefaultServeMux side effect) and only when asked
		// for: an internet-facing campaign service must not leak profiles
		// by default.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	// Signal handling is registered before the listen line is printed:
	// once a caller sees the address, a signal is guaranteed to drain
	// rather than kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "ftserve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "ftserve: listening on http://%s\n", ln.Addr())
	httpSrv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died underneath us; nothing to drain.
		fmt.Fprintln(stderr, "ftserve:", err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills

	// Drain: refuse new work, let running jobs finish within the deadline,
	// fail the stragglers so their clients see a terminal state, flush the
	// store, then complete in-flight requests and close connections.
	fmt.Fprintf(stdout, "ftserve: signal received; draining (up to %s)\n", *drain)
	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	if !srv.AwaitIdle(drainCtx) {
		n := srv.FailLiveJobs("server shutdown: drain deadline exceeded")
		fmt.Fprintf(stdout, "ftserve: drain deadline exceeded; failed %d live job(s)\n", n)
	}
	cancel()
	if err := cache.Close(); err != nil {
		fmt.Fprintln(stderr, "ftserve: store close:", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(stderr, "ftserve: shutdown:", err)
	}
	<-serveErr // always http.ErrServerClosed after Shutdown
	fmt.Fprintln(stdout, "ftserve: shut down cleanly")
	return 0
}
