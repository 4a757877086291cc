// Package sim implements the discrete-event simulator of Section V-A: it
// unfolds the three fault-tolerance protocols on randomly generated failure
// traces and measures the actual execution time, including all the events the
// first-order model neglects — failures during checkpoints, during recovery,
// during downtime, and overlapping failures at small MTBF.
//
// The simulation is event-driven over the failure stream: the next failure
// instant is always known, every protocol action (work chunk, checkpoint,
// recovery) is an interval of simulated time, and an action interrupted by a
// failure triggers the protocol-specific reaction (rollback and re-execution
// for checkpoint/rollback phases, checksum reconstruction for ABFT phases).
// Two companion families share the same machinery: silent errors caught by
// verified patterns (silent.go) and two-level checkpointing (multilevel.go).
// Every replica of every family takes its arrivals from one blockSource
// (blocks.go); the scalar reference walkers they must match bit for bit are
// test oracles (oracle_test.go). SimulateCohort (cohort.go) walks several
// fail-stop campaigns over one failure process, replica-major; Simulate and
// SimulateAdaptive are its one-member case.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/stats"
)

// Breakdown decomposes a run's wall-clock time by activity.
type Breakdown struct {
	// Work is the productive time: application progress that was kept.
	Work float64
	// Ckpt is time spent in checkpoints that completed.
	Ckpt float64
	// Lost is re-executed or rolled-back time: work and partial checkpoints
	// destroyed by a failure, and partial recoveries that had to restart.
	Lost float64
	// Recovery is time spent in completed downtime+recovery (or downtime +
	// remainder reload + ABFT reconstruction) operations.
	Recovery float64
}

// Total returns the sum of all categories.
func (b Breakdown) Total() float64 { return b.Work + b.Ckpt + b.Lost + b.Recovery }

// RunResult is the outcome of simulating one complete application execution.
type RunResult struct {
	// TFinal is the simulated makespan.
	TFinal float64
	// Faults is the number of failures that struck during the run.
	Faults int
	// Waste is 1 - usefulTime/TFinal.
	Waste float64
	// Truncated reports that the run hit the safety cap before completing
	// (the scenario is effectively infeasible).
	Truncated bool
	// Breakdown decomposes TFinal by activity.
	Breakdown Breakdown
}

// Config describes a simulation campaign.
type Config struct {
	// Params are the per-epoch application/platform parameters.
	Params model.Params
	// Protocol selects the fault-tolerance strategy.
	Protocol model.Protocol
	// Epochs is the number of application epochs per run (default 1).
	Epochs int
	// Reps is the number of independent runs to aggregate (default 1000,
	// the paper's repetition count).
	Reps int
	// Seed selects the failure-trace family; run i uses substream
	// rng.At(Seed, i) so results are independent of execution order.
	Seed uint64
	// Workers bounds the number of goroutines Simulate uses to run replicas
	// (0: GOMAXPROCS). Results are bit-identical for any worker count.
	Workers int
	// Distribution builds the failure inter-arrival distribution from the
	// MTBF. Defaults to the exponential law of the paper. Simulate calls it
	// once per campaign and shares the returned Distribution across all
	// workers, so Sample must be safe for concurrent use with distinct
	// sources (the stateless laws of internal/dist all are).
	Distribution func(mtbf float64) dist.Distribution
	// Safeguard enables the Section III-B ABFT-activation rule.
	Safeguard bool
	// MaxTimeFactor caps a run at MaxTimeFactor*(Epochs*T0) to keep
	// infeasible scenarios finite; default DefaultMaxTimeFactor.
	MaxTimeFactor float64
}

// DefaultMaxTimeFactor is the Config.MaxTimeFactor default: the horizon
// bound of a run in units of its fault-free useful time. Exported so
// schedulers deriving failure-process identities (internal/scenario's
// cohort keys) can name the same bound.
const DefaultMaxTimeFactor = 1e4

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
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

// resolve applies the defaults, validates the parameters and builds the
// failure distribution once (a pure value shared by every worker). It runs
// on the caller's goroutine, so a misconfigured campaign — invalid
// parameters, a nil or invalid distribution — panics where it is
// recoverable instead of inside a worker.
func (c Config) resolve() (Config, dist.Distribution) {
	c = c.withDefaults()
	if err := c.Params.Validate(); err != nil {
		panic(err)
	}
	d := c.Distribution(c.Params.Mu)
	if d == nil {
		panic("sim: Config.Distribution returned nil")
	}
	return c, d
}

// phaseKind selects the protection regime of one phase.
type phaseKind int

const (
	phasePeriodic phaseKind = iota // periodic checkpoint + rollback
	phaseShort                     // single work chunk + trailing checkpoint
	phaseABFT                      // ABFT: forward recovery, no re-execution
)

// phaseSpec is one phase of an epoch with its protection parameters.
type phaseSpec struct {
	kind     phaseKind
	work     float64 // fault-free work duration (already scaled by phi for ABFT)
	period   float64 // checkpoint period (periodic only)
	ckpt     float64 // periodic/exit checkpoint cost
	trailing float64 // trailing checkpoint cost (short phases)
	recovery float64 // downtime + reload (+ reconstruction for ABFT)

	// chunks is a periodic phase's chunk sequence, the exact one the
	// reference walker's float loop produces. It is failure-independent,
	// so it is computed once per campaign and shared by every replica:
	// the walker iterates it instead of re-deriving each chunk from a
	// serial "completed" accumulation on its critical path.
	chunks []float64
}

// periodic builds a periodic phase and its chunk sequence.
func periodic(work, period, ckpt, recovery float64) phaseSpec {
	// Replicate the reference chunk loop exactly, floats and all. The
	// float sums can fall short of a whole number of periods and leave a
	// last sliver of a chunk, hence the extra slot.
	workPerPeriod := period - ckpt
	chunks := make([]float64, 0, int(math.Ceil(work/workPerPeriod))+1)
	for completed := 0.0; completed < work; {
		chunk := min(workPerPeriod, work-completed)
		chunks = append(chunks, chunk)
		completed += chunk
	}
	return phaseSpec{kind: phasePeriodic, work: work, period: period, ckpt: ckpt, recovery: recovery, chunks: chunks}
}

// epochPhases builds the phase sequence of one epoch for a protocol,
// mirroring exactly the regime decisions of the analytical model.
func epochPhases(proto model.Protocol, p model.Params, safeguard bool) []phaseSpec {
	dr := p.D + p.R
	abftRecovery := p.D + p.EffectiveRLbar() + p.Recons

	// general phase under full periodic checkpointing, trailing checkpoint
	// "trail" when the phase is shorter than the optimal period.
	general := func(work, trail float64) phaseSpec {
		period, ok := model.OptimalPeriod(p.C, p.Mu, p.D, p.R)
		if ok && work >= period {
			return periodic(work, period, p.C, dr)
		}
		return phaseSpec{kind: phaseShort, work: work, trailing: trail, recovery: dr}
	}
	// library phase under incremental periodic checkpointing (Bi).
	libraryBi := func(work float64) phaseSpec {
		cl := p.CL()
		period, ok := model.OptimalPeriod(cl, p.Mu, p.D, p.R)
		if ok && work >= period {
			return periodic(work, period, cl, dr)
		}
		return phaseSpec{kind: phaseShort, work: work, trailing: cl, recovery: dr}
	}

	switch proto {
	case model.PurePeriodicCkpt:
		return []phaseSpec{general(p.T0, 0)}
	case model.BiPeriodicCkpt:
		phases := make([]phaseSpec, 0, 2)
		if p.TG() > 0 {
			phases = append(phases, general(p.TG(), p.C))
		}
		if p.TL() > 0 {
			phases = append(phases, libraryBi(p.TL()))
		}
		return phases
	case model.AbftPeriodicCkpt:
		phases := make([]phaseSpec, 0, 2)
		phases = append(phases, general(p.TG(), p.CLbar()))
		if p.TL() > 0 {
			abftOn := true
			if safeguard {
				pg, ok := model.OptimalPeriod(p.C, p.Mu, p.D, p.R)
				if ok && p.Phi*p.TL()+p.CL() < pg {
					abftOn = false
				}
			}
			if abftOn {
				phases = append(phases, phaseSpec{
					kind: phaseABFT, work: p.Phi * p.TL(), ckpt: p.CL(), recovery: abftRecovery,
				})
			} else {
				phases = append(phases, libraryBi(p.TL()))
			}
		}
		return phases
	default:
		panic(fmt.Sprintf("sim: unknown protocol %v", proto))
	}
}

// Aggregate summarizes a simulation campaign. Every Summary carries the
// sample mean, standard deviation and 95% confidence half-width, so
// simulator-vs-model comparisons can assert statistically (|sim - model|
// against Waste.CI95) instead of with ad-hoc tolerances.
type Aggregate struct {
	Waste  stats.Summary
	Faults stats.Summary
	TFinal stats.Summary
	// Work, Ckpt, Lost and Recovery summarize the per-run wall-clock
	// breakdown by activity (seconds).
	Work      stats.Summary
	Ckpt      stats.Summary
	Lost      stats.Summary
	Recovery  stats.Summary
	Runs      int
	Truncated int
}

// Simulate runs cfg.Reps independent executions across a worker pool and
// aggregates them. Each repetition draws its failure trace from the substream
// rng.At(Seed, rep) — addressed by repetition index, not by worker — and the
// per-run results are reduced sequentially in repetition order, so the
// aggregate is reproducible bit-for-bit regardless of cfg.Workers and of
// scheduling order.
//
// The campaign runs as a one-member cohort (see SimulateCohort). Each
// worker drives a preallocated replicaRunner, so the steady state of a
// campaign performs no per-replica allocations (pinned by
// TestReplicaRunnerAllocFree) and no dynamic dispatch for exponential
// failures, while remaining bit-identical to the scalar reference walker of
// the tests (pinned by TestReplicaRunnerMatchesSimulateOnce).
func Simulate(cfg Config) Aggregate {
	return simulateOne(cfg, nil).Aggregate
}

// aggregator is the ordered reduce behind every campaign entry point: one
// accumulator per Aggregate summary, fed in repetition order.
type aggregator struct {
	waste, faults, tfinal, work, ckpt, lost, recovery stats.Accumulator
	truncated                                         int
}

func (a *aggregator) add(r RunResult) {
	a.waste.Add(r.Waste)
	a.faults.Add(float64(r.Faults))
	a.tfinal.Add(r.TFinal)
	a.work.Add(r.Breakdown.Work)
	a.ckpt.Add(r.Breakdown.Ckpt)
	a.lost.Add(r.Breakdown.Lost)
	a.recovery.Add(r.Breakdown.Recovery)
	if r.Truncated {
		a.truncated++
	}
}

// result summarizes every replica added so far.
func (a *aggregator) result() Aggregate {
	waste := a.waste.Summarize()
	return Aggregate{
		Waste:     waste,
		Faults:    a.faults.Summarize(),
		TFinal:    a.tfinal.Summarize(),
		Work:      a.work.Summarize(),
		Ckpt:      a.ckpt.Summarize(),
		Lost:      a.lost.Summarize(),
		Recovery:  a.recovery.Summarize(),
		Runs:      waste.N,
		Truncated: a.truncated,
	}
}

// replicaBlock bounds the parallel pool's result buffer: replicas fill one
// block in parallel, then reduce in repetition order, so memory stays
// O(replicaBlock) for arbitrarily large campaigns.
const replicaBlock = 4096

// poolRunners builds one worker-owned replica engine per pool slot: workers
// of them (0: GOMAXPROCS), but never more than reps.
func poolRunners[W any](workers, reps int, newRunner func() W) []W {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	runners := make([]W, min(workers, reps))
	for i := range runners {
		runners[i] = newRunner()
	}
	return runners
}

// runOrdered is the replica pool of every campaign entry point: it runs
// replicas [base, base+count), routing each through one runner's private
// state with run, and hands every result to reduce in repetition order.
// Floating-point accumulation is order-dependent; the ordered reduce keeps
// the aggregate bit-identical for any worker count and any assignment of
// replicas to workers.
func runOrdered[W, T any](runners []W, base, count int, run func(W, int) T, reduce func(T)) {
	if len(runners) == 1 {
		// Serial campaigns reduce on the fly: replicas already complete in
		// repetition order, no block buffer needed.
		for i := 0; i < count; i++ {
			reduce(run(runners[0], base+i))
		}
		return
	}
	results := make([]T, min(count, replicaBlock))
	for blk := 0; blk < count; blk += len(results) {
		n := min(len(results), count-blk)
		start := base + blk
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(len(runners))
		for _, r := range runners {
			go func(r W) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					results[i] = run(r, start+i)
				}
			}(r)
		}
		wg.Wait()
		for _, res := range results[:n] {
			reduce(res)
		}
	}
}
