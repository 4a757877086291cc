package sim

import (
	"math"

	"abftckpt/internal/dist"
	"abftckpt/internal/rng"
)

// replicaRunner is the allocation-free replica engine behind Simulate. Each
// worker owns one and replays its repetitions through it: the rng state, the
// failure source and the timeline live inline in the struct, the phase
// sequence and the distribution are computed once per campaign and shared,
// and the exponential law — the paper's failure model and the overwhelmingly
// common configuration — is sampled directly instead of through the
// dist.Distribution interface.
//
// run(rep) is bit-identical to SimulateOnce(cfg, NewRenewalSource(...)) on
// the substream rng.At(Seed, rep): same draws in the same order, same
// floating-point operations in the same association. That equivalence is the
// load-bearing contract (golden campaign CSVs and cached cells depend on it)
// and is pinned exactly by TestReplicaRunnerMatchesSimulateOnce.
type replicaRunner struct {
	cfg    Config
	phases []phaseSpec

	useful  float64
	horizon float64

	// distrib is the shared inter-arrival law; when it is the exponential
	// family, isExp short-circuits sampling to negMTBF * ln(U) — the exact
	// expression dist.Exponential.Sample evaluates — with no dynamic
	// dispatch on the hot path.
	distrib dist.Distribution
	negMTBF float64
	isExp   bool

	src rng.Source

	// expBuf holds runExp's batched failure arrival times; drawEWMA tracks
	// the per-replica draw consumption that sizes its adaptive fills.
	expBuf   [expBatch]float64
	drawEWMA int

	// chunkSched is the shared periodicChunkSchedules result: runExp
	// iterates it instead of re-deriving each chunk from a serial
	// "completed" accumulation on the critical path.
	chunkSched [][]float64

	// Trace-replay state: when tr is non-nil the runner replays the
	// materialized arrival prefix arrivals[trPos:trEnd] of the current
	// replica instead of drawing; once the prefix is exhausted, trLive
	// restores the replica's saved generator state and drawing continues
	// scalar — bit-identical to never having materialized anything.
	tr           *TraceArena
	trPos, trEnd int
	trRep        int
	trLive       bool

	// Timeline state, mirroring the timeline type field for field.
	now    float64
	next   float64
	faults int
	capped bool
	b      Breakdown

	// Control-variate instrumentation for adaptive runs: when cvHorizon is
	// positive, nextArrival counts every arrival drawn (or replayed) at or
	// below it, and runMeasured tops the count up past the run's end so
	// cvCount is exactly N(cvHorizon) — for the exponential law a Poisson
	// count with known mean cvHorizon/MTBF. Zero (the default, and always
	// the case under Simulate/SimulateFromTrace) keeps the branch dead.
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

// run executes repetition rep on the substream rng.At(Seed, rep).
func (r *replicaRunner) run(rep int) RunResult {
	if r.tr == nil {
		r.src.Reseed(rng.At1(r.cfg.Seed, uint64(rep)))
		if r.isExp && r.cvHorizon <= 0 {
			// Exponential failures take the fully registerized walker. With
			// the control variate active the scalar walker runs instead —
			// bit-identical results (both are pinned to SimulateOnce by
			// TestReplicaRunnerMatchesSimulateOnce) with its arrivals routed
			// through nextArrival, where the cvHorizon counting lives.
			return r.runExp()
		}
	} else {
		// Trace replay: point the cursor at the replica's materialized
		// prefix; nextArrival reads it (and continues live past its end).
		r.trRep = rep
		r.trPos, r.trEnd = r.tr.offsets[rep], r.tr.offsets[rep+1]
		r.trLive = false
	}
	// Scalar timeline walker: non-exponential laws, and every trace replay
	// (replay has no sampling to batch, so the registerized exponential
	// walker holds no advantage over plain arena loads).
	r.b = Breakdown{}
	r.now, r.faults, r.capped = 0, 0, false
	// First failure: one draw at construction (NewRenewalSource), then the
	// NextAfter(0) top-up loop of newTimeline.
	next := r.nextArrival(0)
	for next <= 0 {
		next = r.nextArrival(next)
	}
	r.next = next

	for e := 0; e < r.cfg.Epochs && !r.capped; e++ {
		for i := range r.phases {
			r.runPhase(&r.phases[i])
		}
	}
	res := RunResult{TFinal: r.now, Faults: r.faults, Truncated: r.capped, Breakdown: r.b}
	if r.capped {
		res.Waste = 1
	} else if r.now > 0 {
		res.Waste = 1 - r.useful/r.now
		if res.Waste < 0 {
			res.Waste = 0
		}
	}
	return res
}

// nextArrival returns the failure arrival following next (the running
// prefix sum of inter-arrival draws). Replayed arrivals come straight from
// the arena; past the materialized prefix — or with no arena at all — the
// draw is performed live, with the sampling law resolved once. The float
// accumulation next + sample matches RenewalSource.NextAfter's next +=
// sample exactly, and an arena load returns the identical value that
// accumulation produced at build time.
func (r *replicaRunner) nextArrival(next float64) float64 {
	var v float64
	if r.tr != nil && r.trPos < r.trEnd {
		v = r.tr.arrivals[r.trPos]
		r.trPos++
	} else {
		if r.tr != nil && !r.trLive {
			// First draw past the prefix: resume the replica's generator
			// exactly where arena generation left it.
			r.src.Restore(r.tr.states[r.trRep])
			r.trLive = true
		}
		if r.isExp {
			v = next + r.negMTBF*math.Log(r.src.Float64Open())
		} else {
			v = next + r.distrib.Sample(&r.src)
		}
	}
	// Every arrival — drawn or replayed — passes through here exactly once
	// per replica, so this single branch counts the control variate exactly;
	// cvHorizon is 0 outside adaptive runs and the branch never fires.
	if v <= r.cvHorizon {
		r.cvCount++
	}
	return v
}

// measured is one adaptive replica: its result and its control-variate
// observation.
type measured struct {
	res RunResult
	cv  float64
}

// runMeasured executes repetition rep and additionally returns the
// control-variate observation: the number of failure arrivals in
// [0, cvHorizon]. The walk counts every arrival it drew; arrivals beyond the
// run's end but inside the horizon are drawn here as a top-up — extra draws
// are harmless, as every repetition reseeds (or re-points the trace cursor)
// from scratch. With cvHorizon <= 0 this is exactly run.
func (r *replicaRunner) runMeasured(rep int) measured {
	r.cvCount = 0
	res := r.run(rep)
	if r.cvHorizon > 0 {
		for next := r.next; next <= r.cvHorizon; {
			next = r.nextArrival(next)
		}
	}
	return measured{res, float64(r.cvCount)}
}

// advance is timeline.run inlined over the runner state: attempt an action
// of duration d, either completing it or advancing to the failure instant
// and drawing the next failure time.
func (r *replicaRunner) advance(d float64) (float64, bool) {
	if r.capped {
		return 0, true // drain quickly once capped
	}
	if r.now+d <= r.next {
		r.now += d
		if r.now > r.horizon {
			r.capped = true
		}
		return d, true
	}
	done := r.next - r.now
	r.now = r.next
	r.faults++
	// RenewalSource.NextAfter(r.now).
	next := r.next
	for next <= r.now {
		next = r.nextArrival(next)
	}
	r.next = next
	if r.now > r.horizon {
		r.capped = true
		return done, true
	}
	return done, false
}

// recoverLoop is timeline.recover over the runner state.
func (r *replicaRunner) recoverLoop(cost float64) {
	for {
		done, ok := r.advance(cost)
		if ok {
			r.b.Recovery += done
			return
		}
		r.b.Lost += done
	}
}

// runPhase is simPhase specialized to the runner, with a fast path per phase
// kind for the dominant case — the whole step completes before the next
// failure and below the safety horizon — which skips the advance call and
// its bookkeeping entirely. Every float is accumulated in the same order and
// association as simPhase, so results are bit-identical.
func (r *replicaRunner) runPhase(ph *phaseSpec) {
	switch ph.kind {
	case phaseABFT:
		remaining := ph.work
		for remaining > 0 && !r.capped {
			if end := r.now + remaining; end <= r.next && end <= r.horizon {
				r.now = end
				r.b.Work += remaining
				remaining = 0
				break
			}
			done, ok := r.advance(remaining)
			// ABFT retains progress: completed work counts even when a
			// failure interrupted the attempt.
			r.b.Work += done
			remaining -= done
			if !ok {
				r.recoverLoop(ph.recovery)
			}
		}
		// Exit checkpoint of the LIBRARY dataset; a failure during it is
		// repaired by ABFT reconstruction and the checkpoint restarts.
		for !r.capped {
			if end := r.now + ph.ckpt; end <= r.next && end <= r.horizon {
				r.now = end
				r.b.Ckpt += ph.ckpt
				return
			}
			done, ok := r.advance(ph.ckpt)
			if ok {
				r.b.Ckpt += done
				return
			}
			r.b.Lost += done
			r.recoverLoop(ph.recovery)
		}

	case phaseShort:
		// All-or-nothing: a failure loses all progress since phase start,
		// including the trailing checkpoint if it had begun.
		for !r.capped {
			if end := r.now + ph.work + ph.trailing; end <= r.next && end <= r.horizon {
				r.now = end
				r.b.Work += ph.work
				r.b.Ckpt += ph.trailing
				return
			}
			done, ok := r.advance(ph.work)
			if !ok {
				r.b.Lost += done
				r.recoverLoop(ph.recovery)
				continue
			}
			var cd float64
			if ph.trailing > 0 {
				var ckptOK bool
				cd, ckptOK = r.advance(ph.trailing)
				if !ckptOK {
					r.b.Lost += done + cd
					r.recoverLoop(ph.recovery)
					continue
				}
			}
			r.b.Work += done
			r.b.Ckpt += cd
			return
		}

	case phasePeriodic:
		workPerPeriod := ph.period - ph.ckpt
		completed := 0.0
		for completed < ph.work && !r.capped {
			chunk := workPerPeriod
			if rem := ph.work - completed; rem < chunk {
				chunk = rem
			}
			if end := r.now + chunk + ph.ckpt; end <= r.next && end <= r.horizon {
				r.now = end
				r.b.Work += chunk
				r.b.Ckpt += ph.ckpt
				completed += chunk
				continue
			}
			// Attempt chunk + checkpoint; on failure, roll back to the
			// last completed checkpoint and retry the chunk.
			done, ok := r.advance(chunk)
			if !ok {
				r.b.Lost += done
				r.recoverLoop(ph.recovery)
				continue
			}
			cd, ckptOK := r.advance(ph.ckpt)
			if !ckptOK {
				r.b.Lost += done + cd
				r.recoverLoop(ph.recovery)
				continue
			}
			r.b.Work += done
			r.b.Ckpt += cd
			completed += chunk
		}

	default:
		panic("sim: unknown phase kind")
	}
}
