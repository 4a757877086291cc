// Command ftcampaign runs a declarative scenario campaign: it loads a JSON
// campaign file (see docs/ARCHITECTURE.md and the annotated example under
// examples/campaigns/), expands every scenario into content-addressed
// cells, executes the cells that are not already in the on-disk cache, and
// streams the finished artifacts (CSV + ASCII rendering + gnuplot script)
// into the output directory as they complete, together with a
// manifest.json. Rerunning an unchanged campaign re-executes zero cells.
//
// Examples:
//
//	ftcampaign -spec examples/campaigns/quickstart.json -out out
//	ftcampaign -spec my-campaign.json -out out -cache .ftcache -v
//	ftcampaign -platforms
//	ftcampaign -spec my-campaign.json -validate
//	ftcampaign -spec my-campaign.json -dry-run
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"abftckpt/internal/scenario"
	"abftckpt/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// manifest is the machine-readable run summary written next to the
// artifacts.
type manifest struct {
	Campaign  string             `json:"campaign"`
	Cells     int                `json:"cells"`
	Unique    int                `json:"unique"`
	CacheHits int                `json:"cache_hits"`
	Executed  int                `json:"executed"`
	Artifacts []manifestArtifact `json:"artifacts"`
}

type manifestArtifact struct {
	Name  string   `json:"name"`
	Kind  string   `json:"kind"`
	Files []string `json:"files"`
}

func listPlatforms(w io.Writer) {
	fmt.Fprintln(w, "fixed platforms (heatmap and sensitivity scenarios):")
	for _, name := range scenario.PlatformNames() {
		p, _ := scenario.LookupPlatform(name)
		fmt.Fprintf(w, "  %-24s %s\n", name, p.Desc)
	}
	fmt.Fprintln(w, "weak-scaling platforms (scaling, points and ablation scenarios):")
	for _, name := range scenario.ScalingPlatformNames() {
		p, _ := scenario.LookupScalingPlatform(name)
		fmt.Fprintf(w, "  %-24s %s\n", name, p.Desc)
	}
}

// run is the testable entry point: flag parsing and dispatch over the
// given streams, returning the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftcampaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("spec", "", "campaign JSON file (required unless -platforms)")
	out := fs.String("out", "out", "output directory")
	cache := fs.String("cache", "", "cell cache directory (default <out>/.ftcache; -no-cache disables)")
	noCache := fs.Bool("no-cache", false, "disable the cell cache")
	storeURL := fs.String("store-url", "", "remote result store base URL (e.g. http://host:port/v1/store) instead of the on-disk cache")
	workers := fs.Int("workers", 0, "cell-level parallelism (0: NumCPU)")
	validate := fs.Bool("validate", false, "validate the campaign file and exit")
	dryRun := fs.Bool("dry-run", false, "validate and print the cell plan without executing")
	platforms := fs.Bool("platforms", false, "list the built-in platform catalogue and exit")
	verbose := fs.Bool("v", false, "log every cell completion")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "ftcampaign:", err)
		return 1
	}

	if *platforms {
		listPlatforms(stdout)
		return 0
	}
	if *spec == "" {
		fs.Usage()
		return 2
	}
	campaign, err := scenario.LoadFile(*spec)
	if err != nil {
		return fail(err)
	}
	if *validate {
		fmt.Fprintf(stdout, "campaign %q: %d scenarios OK\n", campaign.Name, len(campaign.Scenarios))
		return 0
	}
	if *dryRun {
		// LoadFile already validated; the plan re-expands to report the
		// cell grid and artifact names per scenario.
		plan, err := scenario.PlanCampaign(campaign)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "campaign %q: %d scenarios\n", plan.Campaign, len(plan.Scenarios))
		for _, sp := range plan.Scenarios {
			fmt.Fprintf(stdout, "  %-32s %-12s %5d cells -> %v\n", sp.Name, sp.Kind, sp.Cells, sp.Artifacts)
		}
		fmt.Fprintf(stdout, "total: %d cells (%d unique)\n", plan.Cells, plan.Unique)
		if plan.Cohorts > 0 {
			fmt.Fprintf(stdout, "trace cohorts: %d shared failure processes covering %d sim cells\n",
				plan.Cohorts, plan.CohortCells)
		}
		return 0
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	// A remote store replaces the on-disk tier: results read from and
	// write to a store served by an ftserve (its /v1/store mount), shared
	// with every other node pointed at the same URL. The runner writes
	// each executed cohort with one PutBatch, one round-trip.
	var cellCache *scenario.CellCache
	switch {
	case *storeURL != "":
		if *noCache || *cache != "" {
			fmt.Fprintln(stderr, "ftcampaign: -store-url is mutually exclusive with -cache and -no-cache")
			return 2
		}
		cellCache = scenario.NewCellCacheStore(store.WithChecksum(store.NewRemote(*storeURL, nil)), 0)
		defer cellCache.Close() //nolint:errcheck // releases idle connections; writes already reported their errors
	case *noCache:
		cellCache = scenario.NewCellCache("", 0)
	case *cache != "":
		cellCache = scenario.NewCellCache(*cache, 0)
	default:
		cellCache = scenario.NewCellCache(filepath.Join(*out, ".ftcache"), 0)
	}

	start := time.Now()
	var m manifest
	var artErr error
	filesByName := map[string][]string{}
	runner := scenario.Runner{
		Cache:   cellCache,
		Workers: *workers,
		OnEvent: func(ev scenario.CellEvent) {
			if *verbose {
				state := "executed"
				if ev.Cached {
					state = "cached"
				}
				fmt.Fprintf(stderr, "cell %d/%d %s %s (%s)\n",
					ev.Index, ev.Total, ev.Hash[:12], state, ev.Elapsed.Round(time.Microsecond))
			}
		},
		// OnArtifact callbacks are serialized by the runner, so recording
		// the files actually written needs no extra locking.
		OnArtifact: func(a scenario.Artifact) {
			files, err := a.WriteFiles(*out)
			if err != nil {
				if artErr == nil {
					artErr = err
				}
				return
			}
			filesByName[a.Name] = files
			fmt.Fprintf(stdout, "wrote %s (%s)\n", a.Name, a.Kind())
		},
	}
	report, err := runner.Run(campaign)
	if err != nil {
		return fail(err)
	}
	if artErr != nil {
		return fail(artErr)
	}
	// The manifest lists artifacts in campaign order with the files each
	// one actually produced.
	for _, a := range report.Artifacts {
		m.Artifacts = append(m.Artifacts, manifestArtifact{Name: a.Name, Kind: a.Kind(), Files: filesByName[a.Name]})
	}
	m.Campaign = report.Campaign
	m.Cells = report.Cells
	m.Unique = report.Unique
	m.CacheHits = report.CacheHits
	m.Executed = report.Executed
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(*out, "manifest.json"), append(data, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "campaign %q: %d cells (%d unique), %d cached, %d executed in %s\n",
		report.Campaign, report.Cells, report.Unique, report.CacheHits, report.Executed,
		time.Since(start).Round(time.Millisecond))
	return 0
}
