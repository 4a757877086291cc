package sim

import (
	"math"

	"abftckpt/internal/dist"
)

// replicaRunner is the allocation-free replica engine behind each member of
// a SimulateCohort walk, and so behind Simulate and SimulateAdaptive, which
// run one-member cohorts. Each worker owns one per member and replays its
// repetitions through it: the arrival source lives inline in the struct,
// the phase sequence and the distribution are computed once per campaign
// and shared, and every replica — drawn live or from a cohort's shared
// stream, under any failure law — runs through the one registerized walker
// (walk.go), which consumes its failure stream as blocks of arrival times
// handed out by the runner's blockSource.
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

	// blocks produces the replica's arrival stream and counts the
	// control-variate arrivals of adaptive runs. It points at own, except
	// in a cohort worker of several members, whose runners share the first
	// one's.
	blocks *blockSource
	own    blockSource

	// cvHorizon is the member's control-variate horizon (0: none), and done
	// marks a member that needs no more replicas: the walk skips it.
	cvHorizon float64
	done      bool

	// last is the final block the walk was handed; measure continues the
	// stream from its end.
	last []float64
}

// init prepares a runner in place for a resolved campaign: phases and
// distrib are shared across workers (both are read-only values, and
// Distribution.Sample must be safe for concurrent use).
func (r *replicaRunner) init(cfg Config, phases []phaseSpec, distrib dist.Distribution, cvHorizon float64) {
	r.cfg, r.phases, r.cvHorizon = cfg, phases, cvHorizon
	r.useful = float64(cfg.Epochs) * cfg.Params.T0
	r.horizon = cfg.MaxTimeFactor * math.Max(r.useful, 1)
	r.blocks = &r.own
	// A lone member's walks begin with start, which keeps the horizon set
	// here; a shared source gets each member's from rewind.
	r.own.distrib, r.own.cvHorizon = distrib, cvHorizon
}

// run executes repetition rep on the substream rng.At(Seed, rep), drawn live
// into the runner's own buffer.
func (r *replicaRunner) run(rep int) RunResult {
	r.blocks.start(r.cfg.Seed, rep)
	return r.walk()
}

// measured is one replica of a cohort member: its result and its
// control-variate observation.
type measured struct {
	res RunResult
	cv  float64
}

// measure pairs the walk that just returned res with its control-variate
// observation: the number of failure arrivals in [0, cvHorizon] — for the
// exponential law a Poisson count with known mean cvHorizon/MTBF. The
// stream is monotone, so this is the stream index of the first arrival
// past the horizon. refill counted every block the walk was handed; when
// the stream's last block still ends inside the horizon, the count is
// topped up here with further blocks — extra draws are harmless, as every
// repetition reseeds (or re-points at its shared stream) from scratch.
func (r *replicaRunner) measure(res RunResult) measured {
	if h := r.blocks.cvHorizon; h > 0 {
		for last := r.last[len(r.last)-1]; last <= h; {
			blk := r.blocks.refill(last)
			last = blk[len(blk)-1]
		}
	}
	return measured{res, float64(r.blocks.cvCount)}
}
