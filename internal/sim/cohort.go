package sim

import (
	"fmt"
	"reflect"

	"abftckpt/internal/dist"
)

// CohortMember is one simulation campaign of a cohort (see SimulateCohort):
// its configuration and, for an adaptive-precision campaign, its precision
// block (nil: a fixed-rep campaign).
type CohortMember struct {
	Config    Config
	Precision *Precision
}

// SimulateCohort runs campaigns that observe one failure process —
// internal/scenario's trace cohorts: one platform point simulated under
// several protocols, safeguards or precision blocks — replica-major. Per
// replica a worker draws one live stream from rng.At(Seed, rep) and every
// member walks it in turn; the stream is drawn only as far as the farthest
// member reads it (a member past streamCap arrivals continues privately),
// so the cohort pays the stream's generation once instead of once per
// member. Each member is reduced in repetition order and an adaptive
// member stops at its own looks, so the results are bit-identical to the
// members' solo runs for any worker count: a fixed-rep member's embedded
// Aggregate equals Simulate(Config) (its adaptive fields stay zero), an
// adaptive member's result equals SimulateAdaptive(Config, *Precision)
// (pinned by FuzzCohortMatchesSolo).
//
// The members must draw the same process: equal Seed and the same failure
// law. The law's type and mean are checked; the caller matches its shape,
// as internal/scenario's process keys guarantee. Everything else — the
// protocol, the parameters other than the MTBF, Epochs, Reps, Safeguard,
// precision — may differ. workers bounds the replica workers (<= 0:
// GOMAXPROCS); the members' Config.Workers are ignored.
func SimulateCohort(members []CohortMember, workers int) []AdaptiveAggregate {
	if len(members) == 0 {
		return nil
	}
	ms := make([]member, len(members))
	var distrib dist.Distribution
	for i, mb := range members {
		cfg, d := mb.Config.resolve()
		if i == 0 {
			distrib = d
		} else if seed := ms[0].cfg.Seed; cfg.Seed != seed || reflect.TypeOf(d) != reflect.TypeOf(distrib) || d.Mean() != distrib.Mean() {
			panic(fmt.Sprintf("sim: cohort member %d draws %v on seed %d, member 0 draws %v on seed %d", i, d, cfg.Seed, distrib, seed))
		}
		ms[i] = newMember(cfg, d, mb.Precision)
	}
	walkCohort(ms, distrib, workers)
	out := make([]AdaptiveAggregate, len(ms))
	for i := range ms {
		out[i] = ms[i].result()
	}
	return out
}

// simulateOne runs one campaign as a one-member cohort: Simulate (prec
// nil) and SimulateAdaptive. Its member stays on the stack, so the call
// allocates no more than the member's phases and the worker pool.
func simulateOne(cfg Config, prec *Precision) AdaptiveAggregate {
	cfg, d := cfg.resolve()
	ms := [1]member{newMember(cfg, d, prec)}
	walkCohort(ms[:], d, cfg.Workers)
	return ms[0].result()
}

// walkCohort walks the members' replicas replica-major on up to workers
// goroutines (<= 0: GOMAXPROCS) and reduces each member in repetition
// order, leaving the results in ms. The workers hold no reference to ms.
func walkCohort(ms []member, distrib dist.Distribution, workers int) {
	maxReps := 0
	for i := range ms {
		maxReps = max(maxReps, ms[i].cfg.Reps)
	}
	runners := poolRunners(workers, maxReps, func() cohortWorker {
		return newCohortWorker(ms, distrib)
	})
	// Replica rep's results go to row rep%rows of a table the workers
	// share; a span never holds more than rows replicas.
	rows := 1
	if len(runners) > 1 {
		rows = min(maxReps, replicaBlock)
	}
	table := make([]measured, rows*len(ms))
	for i := range runners {
		runners[i].table = table
	}
	reduce := func(row []measured) {
		for i := range ms {
			if !ms[i].done {
				ms[i].add(row[i])
			}
		}
	}

	// Walk the replicas in spans that end at the next look of some member
	// still running (or after replicaBlock replicas), then take those
	// looks. A member's runners learn that it is done only between spans,
	// so the workers read their flags without a lock.
	for n := 0; ; {
		end, running := n+replicaBlock, false
		for i := range ms {
			if !ms[i].done {
				end, running = min(end, ms[i].next), true
			}
		}
		if !running {
			return
		}
		runOrdered(runners, n, end-n, cohortWorker.run, reduce)
		n = end
		for i := range ms {
			if ms[i].done || ms[i].next != n {
				continue
			}
			ms[i].look(n)
			for w := range runners {
				runners[w].runners[i].done = ms[i].done
			}
		}
	}
}

// cohortWorker is one worker of a cohort walk: a replica runner per
// member, all drawing from the first one's blockSource, whose prefix is
// the replica's shared stream, and the pool's result table.
type cohortWorker struct {
	runners []replicaRunner
	table   []measured
}

func newCohortWorker(ms []member, distrib dist.Distribution) cohortWorker {
	w := cohortWorker{runners: make([]replicaRunner, len(ms))}
	for i := range ms {
		m := &ms[i]
		w.runners[i].init(m.cfg, m.phases, distrib, m.cvHorizon)
		w.runners[i].blocks = &w.runners[0].own
	}
	return w
}

// run walks replica rep of the members still running, in order, over one
// shared stream, and returns their results: member i's is the row's i-th.
// A lone member shares its stream with no one, so it draws it live
// through its runner's inline buffer instead.
func (w cohortWorker) run(rep int) []measured {
	k := len(w.runners)
	row := w.table[rep%(len(w.table)/k)*k:][:k]
	if k == 1 {
		r := &w.runners[0]
		row[0] = r.measure(r.run(rep))
		return row
	}
	blocks := w.runners[0].blocks
	blocks.share(w.runners[0].cfg.Seed, rep)
	for i := range w.runners {
		r := &w.runners[i]
		if r.done {
			continue
		}
		blocks.rewind(r.cvHorizon)
		row[i] = r.measure(r.walk())
	}
	return row
}
