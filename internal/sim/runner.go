package sim

import (
	"math"

	"abftckpt/internal/dist"
)

// replicaRunner is the allocation-free replica engine behind Simulate,
// SimulateAdaptive (live or replaying Config.Trace) and each member of a
// SimulateCohort walk. Each worker owns one (per member) and
// replays its repetitions through it: the arrival source lives inline in the
// struct, the phase sequence and the distribution are computed once per
// campaign and shared, and every replica — generated or replayed, under any
// failure law — runs through the one registerized walker (walk.go), which
// consumes its failure stream as blocks of arrival times handed out by the
// runner's blockSource.
//
// run(rep) is bit-identical to the scalar reference walker of the package's
// tests (oracle_test.go) on the substream rng.At(Seed, rep): same draws in
// the same order, same floating-point operations in the same association.
// That equivalence is the load-bearing contract (golden campaign CSVs and
// cached cells depend on it) and is pinned exactly by
// TestReplicaRunnerMatchesSimulateOnce and FuzzWalkerMatchesSimulateOnce.
type replicaRunner struct {
	cfg    Config
	phases []phaseSpec

	useful  float64
	horizon float64

	// chunkSched is the shared periodicChunkSchedules result: the walker
	// iterates it instead of re-deriving each chunk from a serial
	// "completed" accumulation on the critical path.
	chunkSched [][]float64

	// blocks produces the replica's arrival stream, live or replayed from
	// the campaign's TraceArena, and counts the control-variate arrivals
	// of adaptive runs. It points at own, except in a cohort worker, whose
	// member runners share one (SimulateCohort).
	blocks *blockSource
	own    blockSource

	// last is the final block the walk was handed; measure continues the
	// stream from its end.
	last []float64
}

// periodicChunkSchedules precomputes, per periodic phase, the exact chunk
// sequence the reference walker's float loop produces (it is
// failure-independent, so it is identical for every replica). Computed once
// per campaign and shared by all workers; non-periodic phases get a nil
// entry.
func periodicChunkSchedules(phases []phaseSpec) [][]float64 {
	scheds := make([][]float64, len(phases))
	for i := range phases {
		if ph := &phases[i]; ph.kind == phasePeriodic {
			// Replicate the reference chunk loop exactly, floats and all.
			workPerPeriod := ph.period - ph.ckpt
			// The float sums can fall short of a whole number of periods
			// and leave a last sliver of a chunk, hence the extra slot.
			sched := make([]float64, 0, int(math.Ceil(ph.work/workPerPeriod))+1)
			completed := 0.0
			for completed < ph.work {
				chunk := workPerPeriod
				if rem := ph.work - completed; rem < chunk {
					chunk = rem
				}
				sched = append(sched, chunk)
				completed += chunk
			}
			scheds[i] = sched
		}
	}
	return scheds
}

// newReplicaRunner prepares a worker-local runner. cfg must already have
// defaults applied; phases, chunkSched, distrib and cfg.Trace are shared
// across workers (all are pure or read-only values, and
// Distribution.Sample must be safe for concurrent use). A nil cfg.Trace
// generates failure arrivals on the fly; an arena replays its
// materialized streams.
func newReplicaRunner(cfg Config, phases []phaseSpec, chunkSched [][]float64, distrib dist.Distribution) *replicaRunner {
	r := &replicaRunner{}
	r.init(cfg, phases, chunkSched, distrib)
	return r
}

// init prepares a runner in place (see newReplicaRunner).
func (r *replicaRunner) init(cfg Config, phases []phaseSpec, chunkSched [][]float64, distrib dist.Distribution) {
	r.cfg, r.phases, r.chunkSched = cfg, phases, chunkSched
	r.useful = float64(cfg.Epochs) * cfg.Params.T0
	r.horizon = cfg.MaxTimeFactor * math.Max(r.useful, 1)
	r.blocks = &r.own
	r.own.init(distrib, cfg.Trace)
}

// run executes repetition rep on the substream rng.At(Seed, rep), replayed
// from the arena when the runner has one.
func (r *replicaRunner) run(rep int) RunResult {
	r.blocks.start(r.cfg.Seed, rep)
	return r.walk()
}

// measured is one adaptive replica: its result and its control-variate
// observation.
type measured struct {
	res RunResult
	cv  float64
}

// runMeasured executes repetition rep and additionally returns the
// control-variate observation (see measure). With cvHorizon <= 0 this is
// exactly run.
func (r *replicaRunner) runMeasured(rep int) measured {
	return r.measure(r.run(rep))
}

// measure pairs the walk that just returned res with its control-variate
// observation: the number of failure arrivals in [0, cvHorizon] — for the
// exponential law a Poisson count with known mean cvHorizon/MTBF. The
// stream is monotone, so this is the stream index of the first arrival
// past the horizon. refill counted every block the walk was handed; when
// the stream's last block still ends inside the horizon, the count is
// topped up here with further blocks — extra draws are harmless, as every
// repetition reseeds (or re-points at its prefix) from scratch.
func (r *replicaRunner) measure(res RunResult) measured {
	if h := r.blocks.cvHorizon; h > 0 {
		for last := r.last[len(r.last)-1]; last <= h; {
			blk := r.blocks.refill(last)
			last = blk[len(blk)-1]
		}
	}
	return measured{res, float64(r.blocks.cvCount)}
}
