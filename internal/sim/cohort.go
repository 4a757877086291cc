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
// GOMAXPROCS); the members' Config.Workers are ignored, and their
// Config.Trace must be nil.
func SimulateCohort(members []CohortMember, workers int) []AdaptiveAggregate {
	if len(members) == 0 {
		return nil
	}
	ms := make([]member, len(members))
	var distrib dist.Distribution
	var seed uint64
	maxReps := 0
	for i, mb := range members {
		if mb.Config.Trace != nil {
			panic("sim: SimulateCohort draws its streams live; a member's Config.Trace must be nil")
		}
		cfg, d := mb.Config.resolve()
		if i == 0 {
			distrib, seed = d, cfg.Seed
		} else if cfg.Seed != seed || reflect.TypeOf(d) != reflect.TypeOf(distrib) || d.Mean() != distrib.Mean() {
			panic(fmt.Sprintf("sim: cohort member %d draws %v on seed %d, member 0 draws %v on seed %d", i, d, cfg.Seed, distrib, seed))
		}
		ms[i] = newMember(cfg, d, mb.Precision)
		maxReps = max(maxReps, cfg.Reps)
	}
	runners := poolRunners(workers, maxReps, func() *cohortWorker {
		return newCohortWorker(ms, distrib)
	})

	// Walk the replicas in spans that end at the next look of some member
	// still running (or after replicaBlock replicas), then take those
	// looks. Members only change between spans, so the workers read them
	// without a lock. Replica rep's results go to row rep%rows of table;
	// a span never holds more than rows replicas.
	rows := 1
	if len(runners) > 1 {
		rows = min(maxReps, replicaBlock)
	}
	table := make([]measured, rows*len(ms))
	run := func(w *cohortWorker, rep int) []measured {
		row := table[rep%rows*len(ms):][:len(ms)]
		w.run(seed, rep, ms, row)
		return row
	}
	reduce := func(row []measured) {
		for i := range ms {
			if !ms[i].done {
				ms[i].add(row[i])
			}
		}
	}
	for n := 0; !allDone(ms); {
		end := n + replicaBlock
		for i := range ms {
			if !ms[i].done {
				end = min(end, ms[i].next)
			}
		}
		runOrdered(runners, n, end-n, run, reduce)
		n = end
		for i := range ms {
			if !ms[i].done && ms[i].next == n {
				ms[i].look(n)
			}
		}
	}
	out := make([]AdaptiveAggregate, len(ms))
	for i := range ms {
		out[i] = ms[i].result()
	}
	return out
}

// allDone reports whether every member has all the replicas it needs.
func allDone(ms []member) bool {
	for i := range ms {
		if !ms[i].done {
			return false
		}
	}
	return true
}

// cohortWorker is one worker of a cohort walk: a replica runner per
// member, all drawing from the first one's blockSource, whose prefix is
// the replica's shared stream.
type cohortWorker struct {
	blocks  *blockSource
	runners []replicaRunner
}

func newCohortWorker(ms []member, distrib dist.Distribution) *cohortWorker {
	w := &cohortWorker{runners: make([]replicaRunner, len(ms))}
	w.blocks = &w.runners[0].own
	for i := range ms {
		m := &ms[i]
		w.runners[i].init(m.cfg, m.phases, m.chunkSched, distrib)
		w.runners[i].blocks = w.blocks
	}
	return w
}

// run walks replica rep of the members still running, in order, over one
// shared stream, writing member i's replica to out[i].
func (w *cohortWorker) run(seed uint64, rep int, ms []member, out []measured) {
	w.blocks.share(seed, rep)
	for i := range ms {
		if ms[i].done {
			continue
		}
		w.blocks.rewind(ms[i].cvHorizon)
		r := &w.runners[i]
		out[i] = r.measure(r.walk())
	}
}
