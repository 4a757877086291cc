package sim

import (
	"math"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/rng"
)

// MultiLevelConfig describes a two-level checkpointing simulation campaign:
// fail-stop failures against the schedule of model.MultiLevelParams
// (K segments of Period work + a fast C1 checkpoint, then a slow C2
// checkpoint). A failure is level-1 recoverable with probability Coverage —
// restore R1 from the latest in-memory checkpoint, losing the in-flight
// segment — and otherwise destroys level-1 state: restore R2 from the
// latest level-2 checkpoint, additionally losing every segment committed
// since the pattern started.
type MultiLevelConfig struct {
	// Params are the two-level model parameters. A zero Period or K is
	// resolved to the model's optimal schedule (model.EvaluateMultiLevel),
	// so the simulator always runs the schedule the model prices.
	Params model.MultiLevelParams
	// Reps is the number of independent runs to aggregate (default 1000).
	Reps int
	// Seed selects the failure-trace family; run i draws its arrivals from
	// rng.At(Seed, i) and its coverage lottery from rng.At(Seed, i, 1).
	Seed uint64
	// Workers bounds replica-level parallelism (0: GOMAXPROCS). Results
	// are bit-identical for any worker count.
	Workers int
	// Distribution builds the failure inter-arrival law from Mu; defaults
	// to the exponential law.
	Distribution func(mtbf float64) dist.Distribution
	// MaxTimeFactor caps a run at MaxTimeFactor*W; default
	// DefaultMaxTimeFactor.
	MaxTimeFactor float64
}

func (c MultiLevelConfig) withDefaults() MultiLevelConfig {
	if c.Reps <= 0 {
		c.Reps = 1000
	}
	if c.Distribution == nil {
		c.Distribution = func(mtbf float64) dist.Distribution { return dist.NewExponential(mtbf) }
	}
	if c.MaxTimeFactor <= 0 {
		c.MaxTimeFactor = DefaultMaxTimeFactor
	}
	return c
}

// resolveSchedule fills a concrete (Period, K) into the params.
func (c MultiLevelConfig) resolveSchedule() model.MultiLevelParams {
	p := c.Params
	if p.Period <= 0 || p.K <= 0 {
		r := model.EvaluateMultiLevel(p)
		p.Period, p.K = r.Period, r.K
	}
	return p
}

// multiLevelRunner is the worker-owned replica engine of SimulateMultiLevel.
// Its schedule is resolved and validated once per campaign; its arrival
// stream comes from the runner's blockSource, and its coverage lottery draws
// from its own substream rng.At(Seed, rep, 1), so every replica is
// bit-identical to the scalar reference walker of the package's tests
// (pinned by FuzzCompanionMatchesOnce).
type multiLevelRunner struct {
	p       model.MultiLevelParams // concrete Period and K
	seed    uint64
	horizon float64
	blocks  blockSource
	levels  rng.Source
}

// newMultiLevelRunner prepares a worker-local runner. cfg must already have
// defaults applied and p be its resolved, validated schedule; distrib is
// shared across workers.
func newMultiLevelRunner(cfg MultiLevelConfig, p model.MultiLevelParams, distrib dist.Distribution) *multiLevelRunner {
	r := &multiLevelRunner{p: p, seed: cfg.Seed, horizon: cfg.MaxTimeFactor * math.Max(p.W, 1)}
	r.blocks.distrib = distrib
	return r
}

// run executes replica rep on its dedicated substreams.
func (r *multiLevelRunner) run(rep int) RunResult {
	r.blocks.start(r.seed, rep)
	r.levels.Reseed(rng.At(r.seed, uint64(rep), 1))
	return r.walk()
}

// walk executes one two-level replica: segments of Period work plus a
// level-1 checkpoint, K to a pattern closed by a level-2 checkpoint. A
// failure is level-1 recoverable with probability Coverage, drawn once for
// it and once more for every failure that interrupts its recovery; an
// uncovered failure also destroys the work and level-1 checkpoints committed
// since the pattern started. Faults counts the failures that struck; Lost
// includes both in-flight partial operations and destroyed segments.
//
// The clock, the next failure and the block cursor live in locals, as in the
// fail-stop walker; each operation goes through attempt, the reference's run
// over scalar state. A capped run drains: every later operation takes no
// time and succeeds, exactly as in the reference.
func (r *multiLevelRunner) walk() RunResult {
	p := &r.p
	horizon := r.horizon
	blocks := &r.blocks
	levels := &r.levels
	restore1, restore2 := p.D+p.R1, p.D+p.R2

	var (
		now    float64
		faults int
		capped bool

		work, ck, lost, recov float64 // Breakdown accumulators

		// done is the committed work; pattWork and pattCkpt are the work and
		// level-1 checkpoint time committed since the last level-2
		// checkpoint, which an uncovered failure destroys; seg counts the
		// pattern's committed segments.
		done, pattWork, pattCkpt float64
		seg                      int
		// l2Due reports that the pattern is complete (or the work done) and
		// its level-2 checkpoint has not yet succeeded.
		l2Due bool
	)
	blk := blocks.refill(0)
	next, blk, bpos := blocks.after(0, blk[0], blk, 1)

	for !capped && (l2Due || done < p.W) {
		var ran float64 // the part of the failed operation(s) that ran
		var ok bool
		if !l2Due {
			// One segment: a work chunk and a level-1 checkpoint,
			// all-or-nothing against the latest checkpoint.
			chunk := math.Min(p.Period, p.W-done)
			ran, ok, now, next, faults, blk, bpos, capped = attempt(blocks, chunk, now, next, faults, horizon, blk, bpos)
			if ok {
				var dc float64
				if !capped {
					dc, ok, now, next, faults, blk, bpos, capped = attempt(blocks, p.C1, now, next, faults, horizon, blk, bpos)
				}
				if ok {
					work += ran
					ck += dc
					done += ran
					pattWork += ran
					pattCkpt += dc
					seg++
					l2Due = seg >= p.K || done >= p.W
					continue
				}
				ran += dc
			}
		} else {
			// Pattern boundary (or end of execution): the level-2
			// checkpoint, retried from the level-1 state on covered
			// failures.
			ran, ok, now, next, faults, blk, bpos, capped = attempt(blocks, p.C2, now, next, faults, horizon, blk, bpos)
			if ok {
				ck += ran
				pattWork, pattCkpt = 0, 0
				seg = 0
				l2Due = false
				continue
			}
		}
		lost += ran

		// A failure struck: one downtime+recovery, escalating to level 2
		// when the failure or any failure interrupting the recovery is
		// uncovered.
		l1Intact := levels.Float64() < p.Coverage
		for !capped {
			cost := restore1
			if !l1Intact {
				cost = restore2
			}
			ran, ok, now, next, faults, blk, bpos, capped = attempt(blocks, cost, now, next, faults, horizon, blk, bpos)
			if ok {
				recov += ran
				break
			}
			lost += ran
			if levels.Float64() >= p.Coverage {
				l1Intact = false
			}
		}
		if !l1Intact {
			// Level-2 rollback: the pattern's committed segments are gone.
			lost += pattWork + pattCkpt
			work -= pattWork
			ck -= pattCkpt
			done -= pattWork
			pattWork, pattCkpt = 0, 0
			seg = 0
		}
		if l2Due && seg == 0 && done < p.W {
			l2Due = false // the pattern itself was rolled back; re-run it
		}
	}
	blocks.finish(len(blk) - bpos)

	res := RunResult{
		TFinal: now, Faults: faults, Truncated: capped,
		Breakdown: Breakdown{Work: work, Ckpt: ck, Lost: lost, Recovery: recov},
	}
	if capped {
		res.Waste = 1
	} else if now > 0 {
		res.Waste = 1 - p.W/now
		if res.Waste < 0 {
			res.Waste = 0
		}
	}
	return res
}

// attempt runs one operation of length d against the arrival stream: the
// reference's run over scalar state, entered with capped == false. It
// returns the part of d that ran; whether the operation counts as completed
// (it fitted before the next failure, or the clock crossed the horizon and
// the run drains); and the updated (now, next, faults, blk, bpos, capped).
func attempt(blocks *blockSource, d, now, next float64, faults int, horizon float64, blk []float64, bpos int) (float64, bool, float64, float64, int, []float64, int, bool) {
	if now+d <= next {
		now += d
		return d, true, now, next, faults, blk, bpos, now > horizon
	}
	ran := next - now
	now = next
	next, blk, bpos = blocks.after(now, next, blk, bpos)
	capped := now > horizon
	return ran, capped, now, next, faults + 1, blk, bpos, capped
}

// SimulateMultiLevel runs cfg.Reps independent two-level executions across
// a worker pool and aggregates them, bit-identical for any worker count
// (replica-indexed substreams, repetition-order reduce). The aggregate
// waste converges to model.EvaluateMultiLevel's first-order prediction when
// failures are rare relative to the pattern (pinned by
// TestMultiLevelSimMatchesModel).
func SimulateMultiLevel(cfg MultiLevelConfig) Aggregate {
	cfg = cfg.withDefaults()
	p := cfg.resolveSchedule()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	distrib := cfg.Distribution(cfg.Params.Mu)
	if distrib == nil {
		panic("sim: MultiLevelConfig.Distribution returned nil")
	}
	runners := poolRunners(cfg.Workers, cfg.Reps, func() *multiLevelRunner {
		return newMultiLevelRunner(cfg, p, distrib)
	})
	var agg aggregator
	runOrdered(runners, 0, cfg.Reps, (*multiLevelRunner).run, agg.add)
	return agg.result()
}
