package sim

import (
	"math"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/rng"
)

// SilentConfig describes a silent-error (SDC) simulation campaign. The
// protocol simulated is exactly the one the analytic model prices
// (model.EvaluateSilent): work split into verified patterns, errors striking
// during work execution only, detection at the pattern-end verification, and
// backward (rollback + full re-execution) or forward (in-place correction +
// protected re-execution of the tainted suffix) recovery.
type SilentConfig struct {
	// Params are the silent-error model parameters (work, rate, costs).
	Params model.SilentParams
	// Mode selects backward or forward recovery.
	Mode model.SilentRecovery
	// Reps is the number of independent runs to aggregate (default 1000).
	Reps int
	// Seed selects the error-trace family; run i draws from the substream
	// rng.At(Seed, i), so results are independent of execution order.
	Seed uint64
	// Workers bounds replica-level parallelism (0: GOMAXPROCS). Results are
	// bit-identical for any worker count.
	Workers int
	// Distribution builds the silent-error inter-arrival law from MuSilent.
	// Defaults to the exponential law, the only one for which the analytic
	// model is exact; other laws probe the model's Poisson assumption.
	Distribution func(mu float64) dist.Distribution
	// MaxTimeFactor caps a run at MaxTimeFactor*W; default
	// DefaultMaxTimeFactor.
	MaxTimeFactor float64
}

func (c SilentConfig) withDefaults() SilentConfig {
	if c.Reps <= 0 {
		c.Reps = 1000
	}
	if c.Distribution == nil {
		c.Distribution = func(mu float64) dist.Distribution { return dist.NewExponential(mu) }
	}
	if c.MaxTimeFactor <= 0 {
		c.MaxTimeFactor = DefaultMaxTimeFactor
	}
	return c
}

// errorClock generates silent-error arrivals on the work clock: errors
// accrue only while (unprotected) work executes, so the clock advances by
// exactly the executed work duration. The same clock drives the walker and
// the event-calendar oracle of the tests, which keeps their draws — and
// therefore their runs — bit-identical.
type errorClock struct {
	d        dist.Distribution
	src      *rng.Source
	consumed float64 // work-clock time already executed
	next     float64 // work-clock time of the next error
}

func newErrorClock(d dist.Distribution, src *rng.Source) *errorClock {
	return &errorClock{d: d, src: src, next: d.Sample(src)}
}

// reset rewinds the clock for a new replica drawing from a fresh stream.
func (e *errorClock) reset() {
	e.consumed = 0
	e.next = e.d.Sample(e.src)
}

// advance executes t seconds of unprotected work and reports how many
// errors struck it and the work-clock offset of the first one within this
// span (meaningless when count is 0).
func (e *errorClock) advance(t float64) (count int, first float64) {
	end := e.consumed + t
	for e.next <= end {
		if count == 0 {
			first = e.next - e.consumed
		}
		count++
		e.next += e.d.Sample(e.src)
	}
	e.consumed = end
	return count, first
}

// silentPeriod resolves the work per verified pattern of a config.
func silentPeriod(cfg SilentConfig) float64 {
	period := cfg.Params.Period
	if period <= 0 {
		period = model.SilentOptimalPeriod(cfg.Mode, cfg.Params)
	}
	return math.Min(period, cfg.Params.W)
}

// SimulateSilentOnce executes one run against one error stream. The
// returned RunResult counts verification time as Ckpt (protection
// overhead), detection/rollback/correction as Recovery, and discarded or
// re-executed work as Lost; Faults is the number of verifications that
// flagged an error.
func SimulateSilentOnce(cfg SilentConfig, clock *errorClock) RunResult {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	period := silentPeriod(cfg)
	horizon := cfg.MaxTimeFactor * math.Max(cfg.Params.W, 1)
	p := cfg.Params
	var b Breakdown
	wall, done, detections := 0.0, 0.0, 0

patterns:
	for done < p.W {
		t := math.Min(period, p.W-done)
		for { // verification attempts of this pattern
			count, first := clock.advance(t)
			// Two separate adds, mirroring the oracle's work and verify
			// completion events, so both paths stay bit-identical.
			wall += t
			wall += p.V
			if count == 0 {
				b.Work += t
				b.Ckpt += p.V
				break
			}
			detections++
			if cfg.Mode == model.SilentForward {
				// Correct in place and re-execute the tainted suffix under
				// protection; the pattern is then verified clean.
				taint := t - first
				wall += p.Detect + p.F + taint
				b.Work += t     // clean prefix + protected re-execution, kept
				b.Lost += taint // the corrupted original suffix
				b.Ckpt += p.V
				b.Recovery += p.Detect + p.F
				break
			}
			// Backward: the whole attempt is discarded; restore and retry.
			wall += p.Detect + p.R
			b.Lost += t + p.V
			b.Recovery += p.Detect + p.R
			if wall > horizon {
				break patterns
			}
		}
		wall += p.C
		b.Ckpt += p.C
		done += t
		if wall > horizon {
			break
		}
	}

	capped := done < p.W
	res := RunResult{TFinal: wall, Faults: detections, Truncated: capped, Breakdown: b}
	if capped {
		res.Waste = 1
	} else if wall > 0 {
		res.Waste = 1 - p.W/wall
		if res.Waste < 0 {
			res.Waste = 0
		}
	}
	return res
}

// silentRunner is a worker-owned replica engine for silent-error campaigns:
// the rng source and error clock are allocated once per worker and reseeded
// per replica, mirroring the replicaRunner architecture of the fail-stop
// path.
type silentRunner struct {
	cfg   SilentConfig
	clock *errorClock
}

// run executes replica rep on its dedicated substream.
func (r *silentRunner) run(rep int) RunResult {
	r.clock.src.Reseed(rng.At1(r.cfg.Seed, uint64(rep)))
	r.clock.reset()
	return SimulateSilentOnce(r.cfg, r.clock)
}

// SimulateSilent runs cfg.Reps independent silent-error executions across a
// worker pool and aggregates them, with the same determinism contract as
// Simulate: replica i draws from rng.At(Seed, i) and the reduce is
// performed in repetition order, so the aggregate is bit-identical for any
// worker count. Under exponential errors the aggregate waste converges to
// model.EvaluateSilent's prediction (pinned within CI95 by
// TestSilentSimMatchesModel).
func SimulateSilent(cfg SilentConfig) Aggregate {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	distrib := cfg.Distribution(cfg.Params.MuSilent)
	if distrib == nil {
		panic("sim: SilentConfig.Distribution returned nil")
	}
	runners := poolRunners(cfg.Workers, cfg.Reps, func() *silentRunner {
		return &silentRunner{cfg: cfg, clock: newErrorClock(distrib, rng.New(cfg.Seed))}
	})
	var agg aggregator
	runOrdered(runners, 0, cfg.Reps, (*silentRunner).run, agg.add)
	return agg.result()
}
