package sim

import (
	"math"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
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

// silentPeriod resolves the work per verified pattern of a config.
func silentPeriod(cfg SilentConfig) float64 {
	period := cfg.Params.Period
	if period <= 0 {
		period = model.SilentOptimalPeriod(cfg.Mode, cfg.Params)
	}
	return math.Min(period, cfg.Params.W)
}

// silentRunner is the worker-owned replica engine of SimulateSilent. The
// pattern length and horizon are resolved once per campaign, and the error
// stream comes from the runner's blockSource, read as arrival times on the
// work clock, so every replica is bit-identical to the scalar reference
// walker of the package's tests (pinned by TestSilentDESEquivalence and
// FuzzCompanionMatchesOnce).
type silentRunner struct {
	p       model.SilentParams
	forward bool
	seed    uint64
	period  float64
	horizon float64
	blocks  blockSource
}

// newSilentRunner prepares a worker-local runner. cfg must already have
// defaults applied and valid params; distrib is shared across workers.
func newSilentRunner(cfg SilentConfig, distrib dist.Distribution) *silentRunner {
	r := &silentRunner{
		p: cfg.Params, forward: cfg.Mode == model.SilentForward, seed: cfg.Seed,
		period: silentPeriod(cfg), horizon: cfg.MaxTimeFactor * math.Max(cfg.Params.W, 1),
	}
	r.blocks.distrib = distrib
	return r
}

// run executes replica rep on its dedicated substream.
func (r *silentRunner) run(rep int) RunResult {
	r.blocks.start(r.seed, rep)
	return r.walk()
}

// walk executes one silent-error replica: work split into verified patterns,
// errors striking during work execution only, detection at the pattern-end
// verification, then backward (rollback and full re-execution) or forward
// (in-place correction and protected re-execution of the tainted suffix)
// recovery. Errors accrue on the work clock, which advances by exactly the
// executed work, so the error stream's arrival times are read against it:
// the block cursor and the work clock live in locals. The RunResult counts
// verification time as Ckpt (protection overhead), detection, rollback and
// correction as Recovery, and discarded or re-executed work as Lost; Faults
// is the number of verifications that flagged an error.
func (r *silentRunner) walk() RunResult {
	p := &r.p
	period, horizon := r.period, r.horizon
	blocks := &r.blocks

	var (
		wall, done     float64
		clock          float64 // work-clock time executed
		detections     int
		work, ck, lost float64 // Breakdown accumulators
		recov          float64
	)
	blk := blocks.refill(0)
	next, bpos := blk[0], 1 // next is the work-clock time of the next error

patterns:
	for done < p.W {
		t := math.Min(period, p.W-done)
		for { // verification attempts of this pattern
			// Execute t of unprotected work: errors up to its end strike
			// it; first is the offset of the earliest.
			end := clock + t
			struck := next <= end
			first := next - clock
			next, blk, bpos = blocks.after(end, next, blk, bpos)
			clock = end
			// Two separate adds, mirroring the reference's work and
			// verify completion events, so both paths stay bit-identical.
			wall += t
			wall += p.V
			if !struck {
				work += t
				ck += p.V
				break
			}
			detections++
			if r.forward {
				// Correct in place and re-execute the tainted suffix under
				// protection; the pattern is then verified clean.
				taint := t - first
				wall += p.Detect + p.F + taint
				work += t     // clean prefix + protected re-execution, kept
				lost += taint // the corrupted original suffix
				ck += p.V
				recov += p.Detect + p.F
				break
			}
			// Backward: the whole attempt is discarded; restore and retry.
			wall += p.Detect + p.R
			lost += t + p.V
			recov += p.Detect + p.R
			if wall > horizon {
				break patterns
			}
		}
		wall += p.C
		ck += p.C
		done += t
		if wall > horizon {
			break
		}
	}
	blocks.finish(len(blk) - bpos)

	capped := done < p.W
	res := RunResult{
		TFinal: wall, Faults: detections, Truncated: capped,
		Breakdown: Breakdown{Work: work, Ckpt: ck, Lost: lost, Recovery: recov},
	}
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
		return newSilentRunner(cfg, distrib)
	})
	var agg aggregator
	runOrdered(runners, 0, cfg.Reps, (*silentRunner).run, agg.add)
	return agg.result()
}
