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

// SimulateMultiLevelOnce executes one two-level run against one failure
// trace; levels drives the per-failure coverage lottery. Faults counts the
// failures that struck; Lost includes both in-flight partial operations and
// level-1-committed segments destroyed by an uncovered failure.
func SimulateMultiLevelOnce(cfg MultiLevelConfig, source FailureSource, levels *rng.Source) RunResult {
	cfg = cfg.withDefaults()
	p := cfg.resolveSchedule()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	t := newTimeline(source, cfg.MaxTimeFactor*math.Max(p.W, 1))
	var b Breakdown

	// pattWork and pattCkpt track the work and level-1 checkpoint time
	// committed since the last level-2 checkpoint: an uncovered failure
	// destroys them (they move to Lost and the work is re-executed).
	done, pattWork, pattCkpt := 0.0, 0.0, 0.0
	seg := 0 // segments committed in the current pattern

	// recover completes one downtime+recovery, escalating to level 2 when
	// any failure in the chain (the original or one interrupting recovery)
	// is uncovered. It reports whether level-1 state survived.
	recoverOp := func() (l1Intact bool) {
		l1Intact = levels.Float64() < p.Coverage
		for !t.capped {
			cost := p.D + p.R1
			if !l1Intact {
				cost = p.D + p.R2
			}
			donePart, ok := t.run(cost)
			if ok {
				b.Recovery += donePart
				return l1Intact
			}
			b.Lost += donePart
			if levels.Float64() >= p.Coverage {
				l1Intact = false
			}
		}
		return l1Intact
	}
	// fail handles one failure: roll back to the appropriate checkpoint.
	fail := func() {
		if !recoverOp() {
			// Level-2 rollback: the pattern's committed segments are gone.
			b.Lost += pattWork + pattCkpt
			b.Work -= pattWork
			b.Ckpt -= pattCkpt
			done -= pattWork
			pattWork, pattCkpt = 0, 0
			seg = 0
		}
	}

	for done < p.W && !t.capped {
		// One segment: work chunk + level-1 checkpoint, all-or-nothing
		// against the latest checkpoint.
		chunk := math.Min(p.Period, p.W-done)
		dw, ok := t.run(chunk)
		if !ok {
			b.Lost += dw
			fail()
			continue
		}
		dc, ok := t.run(p.C1)
		if !ok {
			b.Lost += dw + dc
			fail()
			continue
		}
		b.Work += dw
		b.Ckpt += dc
		done += dw
		pattWork += dw
		pattCkpt += dc
		seg++
		if seg < p.K && done < p.W {
			continue
		}
		// Pattern boundary (or end of execution): level-2 checkpoint,
		// retried from the level-1 state on covered failures.
		for !t.capped {
			d2, ok := t.run(p.C2)
			if ok {
				b.Ckpt += d2
				pattWork, pattCkpt = 0, 0
				seg = 0
				break
			}
			b.Lost += d2
			fail()
			if seg == 0 && done < p.W {
				break // the pattern itself was rolled back; re-run it
			}
		}
	}

	res := RunResult{TFinal: t.now, Faults: t.faults, Truncated: t.capped, Breakdown: b}
	if t.capped {
		res.Waste = 1
	} else if t.now > 0 {
		res.Waste = 1 - p.W/t.now
		if res.Waste < 0 {
			res.Waste = 0
		}
	}
	return res
}

// multiLevelRunner is the worker-owned replica engine of SimulateMultiLevel.
type multiLevelRunner struct {
	cfg     MultiLevelConfig
	distrib dist.Distribution
	arrive  *rng.Source
	levels  *rng.Source
}

// run executes replica rep on its dedicated substreams.
func (r *multiLevelRunner) run(rep int) RunResult {
	r.arrive.Reseed(rng.At1(r.cfg.Seed, uint64(rep)))
	r.levels.Reseed(rng.At(r.cfg.Seed, uint64(rep), 1))
	return SimulateMultiLevelOnce(r.cfg, NewRenewalSource(r.distrib, r.arrive), r.levels)
}

// SimulateMultiLevel runs cfg.Reps independent two-level executions across
// a worker pool and aggregates them, bit-identical for any worker count
// (replica-indexed substreams, repetition-order reduce). The aggregate
// waste converges to model.EvaluateMultiLevel's first-order prediction when
// failures are rare relative to the pattern (pinned by
// TestMultiLevelSimMatchesModel).
func SimulateMultiLevel(cfg MultiLevelConfig) Aggregate {
	cfg = cfg.withDefaults()
	if err := cfg.resolveSchedule().Validate(); err != nil {
		panic(err)
	}
	distrib := cfg.Distribution(cfg.Params.Mu)
	if distrib == nil {
		panic("sim: MultiLevelConfig.Distribution returned nil")
	}
	runners := poolRunners(cfg.Workers, cfg.Reps, func() *multiLevelRunner {
		return &multiLevelRunner{
			cfg: cfg, distrib: distrib, arrive: rng.New(cfg.Seed), levels: rng.New(cfg.Seed),
		}
	})
	var agg aggregator
	runOrdered(runners, 0, cfg.Reps, (*multiLevelRunner).run, agg.add)
	return agg.result()
}
