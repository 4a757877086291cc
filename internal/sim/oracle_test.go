package sim

// The scalar reference walkers. Each one steps its failure (or silent-error)
// stream one arrival at a time through an interface, in the plainest form of
// the protocol it simulates; production code runs the registerized walkers
// over blockSource instead (walk.go, multilevel.go, silent.go), and the
// equivalence tests and fuzz targets hold those bit-identical to these on
// every replica. Change a reference first, then mirror it in its walker.

import (
	"fmt"
	"math"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/rng"
)

// FailureSource produces the absolute times of platform failures.
type FailureSource interface {
	// NextAfter returns the time of the first failure strictly after t.
	// Successive calls with non-decreasing t must return non-decreasing
	// results consistent with a single failure realization.
	NextAfter(t float64) float64
}

// RenewalSource is a renewal failure process: inter-arrival times are drawn
// independently from a distribution. With an Exponential distribution this
// is exactly the paper's failure model (a Poisson process with rate 1/MTBF).
type RenewalSource struct {
	dist dist.Distribution
	src  *rng.Source
	next float64
}

// NewRenewalSource creates a renewal process from d, drawing from src.
func NewRenewalSource(d dist.Distribution, src *rng.Source) *RenewalSource {
	r := &RenewalSource{dist: d, src: src}
	r.next = d.Sample(src)
	return r
}

// NextAfter returns the first failure time strictly after t.
func (r *RenewalSource) NextAfter(t float64) float64 {
	for r.next <= t {
		r.next += r.dist.Sample(r.src)
	}
	return r.next
}

// timeline advances simulated time against a failure source.
type timeline struct {
	now     float64
	next    float64
	source  FailureSource
	faults  int
	horizon float64 // safety cap
	capped  bool
}

func newTimeline(src FailureSource, horizon float64) *timeline {
	return &timeline{next: src.NextAfter(0), source: src, horizon: horizon}
}

// run attempts to execute an action of duration d. If no failure interrupts,
// it advances time by d and reports success. Otherwise it advances to the
// failure instant and returns the fraction of d that completed.
func (t *timeline) run(d float64) (done float64, ok bool) {
	if t.capped {
		return 0, true // drain quickly once capped
	}
	if t.now+d <= t.next {
		t.now += d
		if t.now > t.horizon {
			t.capped = true
		}
		return d, true
	}
	done = t.next - t.now
	t.now = t.next
	t.faults++
	t.next = t.source.NextAfter(t.now)
	if t.now > t.horizon {
		t.capped = true
		return done, true
	}
	return done, false
}

// recover completes one downtime+recovery operation of the given cost,
// restarting it from scratch every time a failure interrupts it.
func (t *timeline) recover(cost float64, b *Breakdown) {
	for {
		done, ok := t.run(cost)
		if ok {
			b.Recovery += done
			return
		}
		b.Lost += done
	}
}

// simPhase executes one phase on the timeline.
func simPhase(t *timeline, ph phaseSpec, b *Breakdown) {
	switch ph.kind {
	case phaseABFT:
		remaining := ph.work
		for remaining > 0 && !t.capped {
			done, ok := t.run(remaining)
			// ABFT retains progress: completed work counts even when a
			// failure interrupted the attempt.
			b.Work += done
			remaining -= done
			if !ok {
				t.recover(ph.recovery, b)
			}
		}
		// Exit checkpoint of the LIBRARY dataset; a failure during it is
		// repaired by ABFT reconstruction and the checkpoint restarts.
		for !t.capped {
			done, ok := t.run(ph.ckpt)
			if ok {
				b.Ckpt += done
				return
			}
			b.Lost += done
			t.recover(ph.recovery, b)
		}

	case phaseShort:
		// All-or-nothing: a failure loses all progress since phase start
		// (there is no intermediate checkpoint), including the trailing
		// checkpoint if it had begun.
		for !t.capped {
			done, ok := t.run(ph.work)
			if !ok {
				b.Lost += done
				t.recover(ph.recovery, b)
				continue
			}
			var cd float64
			if ph.trailing > 0 {
				var ckptOK bool
				cd, ckptOK = t.run(ph.trailing)
				if !ckptOK {
					b.Lost += done + cd
					t.recover(ph.recovery, b)
					continue
				}
			}
			b.Work += done
			b.Ckpt += cd
			return
		}

	case phasePeriodic:
		workPerPeriod := ph.period - ph.ckpt
		completed := 0.0
		for completed < ph.work && !t.capped {
			chunk := math.Min(workPerPeriod, ph.work-completed)
			// Attempt chunk + checkpoint; on failure, roll back to the
			// last completed checkpoint and retry the chunk.
			done, ok := t.run(chunk)
			if !ok {
				b.Lost += done
				t.recover(ph.recovery, b)
				continue
			}
			cd, ckptOK := t.run(ph.ckpt)
			if !ckptOK {
				b.Lost += done + cd
				t.recover(ph.recovery, b)
				continue
			}
			b.Work += done
			b.Ckpt += cd
			completed += chunk
		}

	default:
		panic(fmt.Sprintf("sim: unknown phase kind %d", ph.kind))
	}
}

// SimulateOnce executes one full application run against one failure trace.
func SimulateOnce(cfg Config, source FailureSource) RunResult {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	useful := float64(cfg.Epochs) * cfg.Params.T0
	t := newTimeline(source, cfg.MaxTimeFactor*math.Max(useful, 1))
	var b Breakdown
	phases := epochPhases(cfg.Protocol, cfg.Params, cfg.Safeguard)
	for e := 0; e < cfg.Epochs && !t.capped; e++ {
		for _, ph := range phases {
			simPhase(t, ph, &b)
		}
	}
	res := RunResult{TFinal: t.now, Faults: t.faults, Truncated: t.capped, Breakdown: b}
	if t.capped {
		res.Waste = 1
	} else if t.now > 0 {
		res.Waste = 1 - useful/t.now
		if res.Waste < 0 {
			res.Waste = 0
		}
	}
	return res
}

// errorClock generates silent-error arrivals on the work clock: errors
// accrue only while (unprotected) work executes, so the clock advances by
// exactly the executed work duration. The same clock drives the walker and
// the event-calendar oracle of the tests, which keeps their draws — and
// therefore their runs — bit-identical.
type errorClock struct {
	d        dist.Distribution
	src      *rng.Source
	consumed float64 // work-clock time already executed
	next     float64 // work-clock time of the next error
}

func newErrorClock(d dist.Distribution, src *rng.Source) *errorClock {
	return &errorClock{d: d, src: src, next: d.Sample(src)}
}

// reset rewinds the clock for a new replica drawing from a fresh stream.
func (e *errorClock) reset() {
	e.consumed = 0
	e.next = e.d.Sample(e.src)
}

// advance executes t seconds of unprotected work and reports how many
// errors struck it and the work-clock offset of the first one within this
// span (meaningless when count is 0).
func (e *errorClock) advance(t float64) (count int, first float64) {
	end := e.consumed + t
	for e.next <= end {
		if count == 0 {
			first = e.next - e.consumed
		}
		count++
		e.next += e.d.Sample(e.src)
	}
	e.consumed = end
	return count, first
}

// SimulateSilentOnce executes one run against one error stream. The
// returned RunResult counts verification time as Ckpt (protection
// overhead), detection/rollback/correction as Recovery, and discarded or
// re-executed work as Lost; Faults is the number of verifications that
// flagged an error.
func SimulateSilentOnce(cfg SilentConfig, clock *errorClock) RunResult {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	period := silentPeriod(cfg)
	horizon := cfg.MaxTimeFactor * math.Max(cfg.Params.W, 1)
	p := cfg.Params
	var b Breakdown
	wall, done, detections := 0.0, 0.0, 0

patterns:
	for done < p.W {
		t := math.Min(period, p.W-done)
		for { // verification attempts of this pattern
			count, first := clock.advance(t)
			// Two separate adds, mirroring the oracle's work and verify
			// completion events, so both paths stay bit-identical.
			wall += t
			wall += p.V
			if count == 0 {
				b.Work += t
				b.Ckpt += p.V
				break
			}
			detections++
			if cfg.Mode == model.SilentForward {
				// Correct in place and re-execute the tainted suffix under
				// protection; the pattern is then verified clean.
				taint := t - first
				wall += p.Detect + p.F + taint
				b.Work += t     // clean prefix + protected re-execution, kept
				b.Lost += taint // the corrupted original suffix
				b.Ckpt += p.V
				b.Recovery += p.Detect + p.F
				break
			}
			// Backward: the whole attempt is discarded; restore and retry.
			wall += p.Detect + p.R
			b.Lost += t + p.V
			b.Recovery += p.Detect + p.R
			if wall > horizon {
				break patterns
			}
		}
		wall += p.C
		b.Ckpt += p.C
		done += t
		if wall > horizon {
			break
		}
	}

	capped := done < p.W
	res := RunResult{TFinal: wall, Faults: detections, Truncated: capped, Breakdown: b}
	if capped {
		res.Waste = 1
	} else if wall > 0 {
		res.Waste = 1 - p.W/wall
		if res.Waste < 0 {
			res.Waste = 0
		}
	}
	return res
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
