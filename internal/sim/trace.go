package sim

import (
	"fmt"
	"math"
	"slices"

	"abftckpt/internal/dist"
	"abftckpt/internal/rng"
)

// TraceArena is a materialized failure process: for every repetition of a
// campaign it holds the prefix-summed failure arrival times of the substream
// rng.At1(Seed, rep), generated once and replayed (Config.Trace) by any
// number of campaigns that share the process (same distribution,
// MTBF, seed and repetition count). The arrivals live in one flat []float64
// arena indexed by per-replica offsets. Campaigns run together in one call
// share a process more cheaply through SimulateCohort, which draws each
// replica's stream only as far as its members read it and keeps no arena;
// an arena serves campaigns run at different times from one recorded
// process.
//
// The arena stores a bounded prefix of each stream: every replica is
// generated through the first arrival beyond the build horizon. A replay
// that outruns its prefix (a run slower than the horizon allowed for)
// continues drawing live from the replica's saved generator state, so
// results never depend on the horizon; it is purely a memory/speed knob.
type TraceArena struct {
	seed    uint64
	mean    float64 // distribution mean == the MTBF (all laws are normalized)
	horizon float64

	arrivals []float64
	offsets  []int       // len reps+1; replica rep owns arrivals[offsets[rep]:offsets[rep+1]]
	states   [][4]uint64 // per-replica rng state after its generated prefix
}

// Reps returns the number of replica streams the arena holds.
func (tr *TraceArena) Reps() int { return len(tr.offsets) - 1 }

// Len returns the total number of materialized arrivals.
func (tr *TraceArena) Len() int { return len(tr.arrivals) }

// Bytes returns the approximate memory footprint of the arena.
func (tr *TraceArena) Bytes() int64 {
	return int64(len(tr.arrivals))*8 + int64(len(tr.offsets))*8 + int64(len(tr.states))*32
}

// Horizon returns the build horizon: every replica's prefix covers at least
// one arrival beyond it.
func (tr *TraceArena) Horizon() float64 { return tr.horizon }

// Equal reports whether two arenas materialize the same process identically:
// same seed, mean, horizon, per-replica offsets, every arrival bit-equal and
// every saved generator state equal. Process-key equality must imply arena
// equality (pinned by the property tests of internal/scenario).
func (tr *TraceArena) Equal(other *TraceArena) bool {
	if tr.seed != other.seed || tr.mean != other.mean || tr.horizon != other.horizon ||
		len(tr.arrivals) != len(other.arrivals) || len(tr.offsets) != len(other.offsets) {
		return false
	}
	for i := range tr.offsets {
		if tr.offsets[i] != other.offsets[i] {
			return false
		}
	}
	for i := range tr.arrivals {
		if tr.arrivals[i] != other.arrivals[i] {
			return false
		}
	}
	for i := range tr.states {
		if tr.states[i] != other.states[i] {
			return false
		}
	}
	return true
}

const (
	// arenaFillSlack is how many arrivals past the horizon/mean expected
	// ones a replica's batched fills aim for: the crossing arrival and a
	// small margin.
	arenaFillSlack = 4
	// arenaMaxFill bounds one batched fill of an arena build.
	arenaMaxFill = 64
)

// arenaRepBudget is the per-replica arrival budget of an arena at
// lambda = horizon/mean expected arrivals, shared by EstimateArenaArrivals
// and BuildTraceArena's reservation: the exponential fill target, one
// minimum fill of overshoot (fills are never shorter than minFill, and a
// replica short of the horizon at its target takes further minimum fills),
// and one standard deviation of the Poisson arrival count as margin for the
// replicas that need more than their target. A law burstier than the
// exponential may need more; the arena then grows past the reservation.
func arenaRepBudget(lambda float64) float64 {
	return lambda + arenaFillSlack + minFill + math.Sqrt(lambda)
}

// EstimateArenaArrivals predicts how many arrivals BuildTraceArena will
// materialize, so a caller can bound its memory before building. It is
// the arrival capacity BuildTraceArena reserves.
func EstimateArenaArrivals(mean, horizon float64, reps int) int64 {
	if mean <= 0 {
		return math.MaxInt64
	}
	perRep := arenaRepBudget(horizon / mean)
	if perRep > math.MaxInt64/8/float64(reps+1) {
		return math.MaxInt64
	}
	return int64(perRep) * int64(reps)
}

// BuildTraceArena materializes the failure process: for each rep in
// [0, reps), the prefix sums of inter-arrival draws from d on the substream
// rng.At1(seed, rep), generated until the first fill that reaches beyond
// horizon. The draws, their order and their float accumulation are exactly
// those the simulator performs (both go through dist.Fill), so replaying
// the arena is bit-identical to generating on the fly.
func BuildTraceArena(d dist.Distribution, seed uint64, reps int, horizon float64) *TraceArena {
	if reps <= 0 {
		panic("sim: BuildTraceArena needs reps > 0")
	}
	if horizon < 0 || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		panic(fmt.Sprintf("sim: BuildTraceArena horizon %v must be finite and non-negative", horizon))
	}
	tr := &TraceArena{
		seed:    seed,
		mean:    d.Mean(),
		horizon: horizon,
		offsets: make([]int, reps+1),
		states:  make([][4]uint64, reps),
	}
	if !(tr.mean > 0) {
		panic(fmt.Sprintf("sim: BuildTraceArena needs a distribution with positive mean, got %v", tr.mean))
	}
	// One reservation covers the whole arena: regrowing it by append would
	// copy every arrival and transiently double the footprint.
	tr.arrivals = make([]float64, 0, EstimateArenaArrivals(tr.mean, horizon, reps))
	target := int(horizon/tr.mean) + arenaFillSlack

	var src rng.Source
	for rep := 0; rep < reps; rep++ {
		src.Reseed(rng.At1(seed, uint64(rep)))
		// Batched fills write straight into the arena; the fill size tracks
		// the expected remaining arrivals so the overshoot past the horizon
		// stays small.
		for base := 0.0; base <= horizon; {
			at := len(tr.arrivals)
			n := min(max(target-(at-tr.offsets[rep]), minFill), arenaMaxFill)
			tr.arrivals = slices.Grow(tr.arrivals, n)[:at+n]
			dist.Fill(d, &src, tr.arrivals[at:], base)
			base = tr.arrivals[at+n-1]
		}
		tr.offsets[rep+1] = len(tr.arrivals)
		tr.states[rep] = src.State()
	}
	return tr
}
