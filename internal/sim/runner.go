package sim

import (
	"math"

	"abftckpt/internal/dist"
	"abftckpt/internal/rng"
)

// replicaRunner is the allocation-free replica engine behind Simulate,
// SimulateFromTrace and the adaptive campaigns. Each worker owns one and
// replays its repetitions through it: the rng state and the arrival buffer
// live inline in the struct, the phase sequence and the distribution are
// computed once per campaign and shared, and every replica — generated or
// replayed, under any failure law — runs through the one registerized
// walker (walk.go), which consumes its failure stream as blocks of arrival
// times handed out by refill.
//
// run(rep) is bit-identical to SimulateOnce(cfg, NewRenewalSource(...)) on
// the substream rng.At(Seed, rep): same draws in the same order, same
// floating-point operations in the same association. That equivalence is the
// load-bearing contract (golden campaign CSVs and cached cells depend on it)
// and is pinned exactly by TestReplicaRunnerMatchesSimulateOnce and
// FuzzWalkerMatchesSimulateOnce.
type replicaRunner struct {
	cfg    Config
	phases []phaseSpec

	useful  float64
	horizon float64

	// distrib is the shared inter-arrival law; when it is the exponential
	// family, isExp routes live fills through rng.Source.ExpFillFrom with
	// negMTBF — the exact expression dist.Exponential.Sample evaluates — and
	// no dynamic dispatch.
	distrib dist.Distribution
	negMTBF float64
	isExp   bool

	src rng.Source

	// buf holds the live-drawn arrival blocks; drawn counts the arrivals
	// handed out to the current replica, and drawEWMA tracks the
	// per-replica consumption that sizes the live fills.
	buf      [fillBatch]float64
	drawn    int
	drawEWMA int

	// chunkSched is the shared periodicChunkSchedules result: the walker
	// iterates it instead of re-deriving each chunk from a serial
	// "completed" accumulation on the critical path.
	chunkSched [][]float64

	// Trace replay: when tr is non-nil, the first block of replica rep is
	// its materialized arena prefix, read in place; refill then restores
	// the replica's saved generator state, so the live blocks that follow
	// continue the stream bit-identically to never having materialized
	// anything. inPrefix marks that prefix as not yet handed out.
	tr       *TraceArena
	rep      int
	inPrefix bool

	// last is the final block the walk was handed; runMeasured continues
	// the stream from its end.
	last []float64

	// Control-variate instrumentation for adaptive runs: when cvHorizon is
	// positive, refill counts the arrivals at or below it in every block it
	// hands out, and runMeasured tops the count up past the run's end, so
	// cvCount is exactly N(cvHorizon) — for the exponential law a Poisson
	// count with known mean cvHorizon/MTBF. The stream is monotone, so this
	// is the stream index of the first arrival past the horizon. Zero (the
	// default, and always the case under Simulate/SimulateFromTrace) keeps
	// the count off.
	cvHorizon float64
	cvCount   int
}

// periodicChunkSchedules precomputes, per periodic phase, the exact chunk
// sequence the simPhase float loop produces (it is failure-independent, so
// it is identical for every replica). Computed once per campaign and shared
// by all workers; non-periodic phases get a nil entry.
func periodicChunkSchedules(phases []phaseSpec) [][]float64 {
	scheds := make([][]float64, len(phases))
	for i := range phases {
		if ph := &phases[i]; ph.kind == phasePeriodic {
			// Replicate simPhase's chunk loop exactly, floats and all.
			workPerPeriod := ph.period - ph.ckpt
			var sched []float64
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
// defaults applied; phases, chunkSched, distrib and tr are shared across
// workers (all are pure or read-only values, and Distribution.Sample must be
// safe for concurrent use). A nil tr generates failure arrivals on the fly;
// a non-nil tr replays its materialized streams.
func newReplicaRunner(cfg Config, phases []phaseSpec, chunkSched [][]float64, distrib dist.Distribution, tr *TraceArena) *replicaRunner {
	r := &replicaRunner{cfg: cfg, phases: phases, chunkSched: chunkSched, distrib: distrib, tr: tr}
	r.useful = float64(cfg.Epochs) * cfg.Params.T0
	r.horizon = cfg.MaxTimeFactor * math.Max(r.useful, 1)
	if e, ok := distrib.(dist.Exponential); ok {
		r.isExp = true
		r.negMTBF = -e.Mean()
	}
	return r
}

// run executes repetition rep on the substream rng.At(Seed, rep), replayed
// from the arena when the runner has one.
func (r *replicaRunner) run(rep int) RunResult {
	r.rep = rep
	r.drawn, r.cvCount = 0, 0
	if r.tr == nil {
		r.src.Reseed(rng.At1(r.cfg.Seed, uint64(rep)))
	} else {
		r.inPrefix = true
	}
	return r.walk()
}

// refill hands out the next block of the replica's arrival stream, which
// continues after last (the stream's latest arrival, 0 before the first).
// A replayed replica's first block is its arena prefix, in place; every
// other block is drawn live into buf — through ExpFillFrom for the
// exponential law, as a running sum of Distribution.Sample otherwise, the
// same additions in the same order as RenewalSource.NextAfter. Out of line
// so the (rare) refill stays one call in the walker's hot loops.
//
//go:noinline
func (r *replicaRunner) refill(last float64) []float64 {
	var blk []float64
	if r.inPrefix {
		r.inPrefix = false
		tr := r.tr
		blk = tr.arrivals[tr.offsets[r.rep]:tr.offsets[r.rep+1]]
		// Resume the generator exactly where arena generation left it.
		r.src.Restore(tr.states[r.rep])
	} else {
		blk = r.buf[:nextFillSize(r.drawEWMA, r.drawn)]
		if r.isExp {
			r.src.ExpFillFrom(blk, r.negMTBF, last)
		} else {
			for i := range blk {
				last += r.distrib.Sample(&r.src)
				blk[i] = last
			}
		}
	}
	r.drawn += len(blk)
	if h := r.cvHorizon; h > 0 {
		for _, a := range blk {
			if a > h {
				break
			}
			r.cvCount++
		}
	}
	return blk
}

// measured is one adaptive replica: its result and its control-variate
// observation.
type measured struct {
	res RunResult
	cv  float64
}

// runMeasured executes repetition rep and additionally returns the
// control-variate observation: the number of failure arrivals in
// [0, cvHorizon]. refill counted every block the walk was handed; when the
// stream's last block still ends inside the horizon, the count is topped up
// here with further blocks — extra draws are harmless, as every repetition
// reseeds (or re-points at its arena prefix) from scratch. With
// cvHorizon <= 0 this is exactly run.
func (r *replicaRunner) runMeasured(rep int) measured {
	res := r.run(rep)
	if h := r.cvHorizon; h > 0 {
		for last := r.last[len(r.last)-1]; last <= h; {
			blk := r.refill(last)
			last = blk[len(blk)-1]
		}
	}
	return measured{res, float64(r.cvCount)}
}
