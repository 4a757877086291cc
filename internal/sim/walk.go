package sim

// This file is the replica walker: the SimulateOnce timeline walk over one
// failure stream, with every piece of simulation state (clock, next failure,
// accumulators) held in locals of a single function so the inner loops run
// out of registers instead of chasing runner fields. It is the only walker
// of replicaRunner: generated and replayed replicas, the exponential law and
// every other law all run through it.
//
// The failure stream arrives in blocks of absolute arrival times from one
// source, replicaRunner.refill, and each failure consumes the next slot with
// a plain load. A replayed replica's first block is its arena prefix, read
// in place; live blocks are pre-computed into the runner's buffer
// (rng.Source.ExpFillFrom for the exponential law, a running sum of
// Distribution.Sample otherwise). The consumed sequence is exactly the
// prefix of the per-replica stream RenewalSource would accumulate — every
// replica reseeds its stream, so the unconsumed tail of the final block is
// discarded without observable effect. Live block sizes adapt to
// the campaign: the runner tracks an EWMA of arrivals consumed per replica
// and shrinks the final fills, so the discarded tail stays small while the
// bulk fills stay long enough to pipeline their logarithms. The recovery
// loop lives in a value-passing helper (walkRecover) that takes and returns
// plain scalars.
//
// Every float operation replicates the reference SimulateOnce walker in the
// same order and association, so results are bit-identical (pinned by
// TestReplicaRunnerMatchesSimulateOnce and FuzzWalkerMatchesSimulateOnce).
// When editing, change the reference implementation first, then mirror it
// here; the equivalence tests will catch any drift exactly.

const (
	// fillBatch is the arrival-buffer capacity and the bulk fill size: long
	// fills keep rng state in registers and overlap the math.Log calls.
	fillBatch = 32
	// minFill is the smallest live fill, used near the expected end of a
	// replica to bound the discarded tail.
	minFill = 8
	// fillSlack pads the expected remaining draws so a typical replica
	// finishes within its final fill instead of triggering one more.
	fillSlack = 4
)

// nextFillSize picks how many arrivals to pre-compute: the full batch while
// far from the expected per-replica consumption (ewma == 0 means unknown),
// shrinking to the expected remainder near the end.
func nextFillSize(ewma, drawn int) int {
	n := fillBatch
	if ewma > 0 {
		if rem := ewma - drawn + fillSlack; rem < n {
			n = rem
			if n < minFill {
				n = minFill
			}
		}
	}
	return n
}

// walkRecover completes one downtime+recovery operation of the given cost,
// restarting it from scratch every time a failure interrupts it — exactly
// timeline.recover over scalar state. It must be entered with capped ==
// false; it returns the updated (now, next, faults, blk, bpos, capped, lost,
// recov).
func walkRecover(r *replicaRunner, now, next float64, faults int, cost, horizon float64, blk []float64, bpos int, lost, recov float64) (float64, float64, int, []float64, int, bool, float64, float64) {
	for {
		if now+cost <= next {
			now += cost
			recov += cost
			return now, next, faults, blk, bpos, now > horizon, lost, recov
		}
		done := next - now
		now = next
		faults++
		for next <= now {
			if bpos == len(blk) {
				blk, bpos = r.refill(next), 0
			}
			next = blk[bpos]
			bpos++
		}
		if now > horizon {
			recov += done
			return now, next, faults, blk, bpos, true, lost, recov
		}
		lost += done
	}
}

// walk executes one replica of the timeline walk. The comments name the
// branch of timeline.run each case mirrors: "success" (the operation fits
// before the next failure), "success-capped" (fits, but crosses the safety
// horizon: accounted, then the run drains) and "failure-capped" (the
// interrupting failure itself is beyond the horizon, which run reports as
// ok with partial progress accounted by the caller).
func (r *replicaRunner) walk() RunResult {
	horizon := r.horizon
	phases := r.phases
	epochs := r.cfg.Epochs

	var (
		now    float64
		faults int
		capped bool

		work, ck, lost, recov float64 // Breakdown accumulators
	)
	// First failure: one draw at construction (NewRenewalSource), then the
	// NextAfter(0) top-up loop of newTimeline.
	blk := r.refill(0)
	next := blk[0]
	bpos := 1
	for next <= 0 {
		if bpos == len(blk) {
			blk, bpos = r.refill(next), 0
		}
		next = blk[bpos]
		bpos++
	}

	for e := 0; e < epochs && !capped; e++ {
		for pi := range phases {
			ph := &phases[pi]
			switch ph.kind {
			case phaseABFT:
				phCkpt, phRecovery := ph.ckpt, ph.recovery
				remaining := ph.work
				for remaining > 0 && !capped {
					if end := now + remaining; end <= next && end <= horizon {
						// success: the whole remainder completes this attempt.
						now = end
						work += remaining
						remaining = 0
						break
					}
					if now+remaining <= next {
						// success-capped.
						now += remaining
						capped = true
						work += remaining
						remaining = 0
						break
					}
					// A failure strikes; ABFT retains the completed part.
					done := next - now
					now = next
					faults++
					for next <= now {
						if bpos == len(blk) {
							blk, bpos = r.refill(next), 0
						}
						next = blk[bpos]
						bpos++
					}
					work += done
					remaining -= done
					if now > horizon {
						capped = true // failure-capped: no recovery needed
						break
					}
					if now+phRecovery <= next {
						// Recovery completes on the first attempt — the common
						// case, inlined from walkRecover's first iteration.
						now += phRecovery
						recov += phRecovery
						if now > horizon {
							capped = true
						}
					} else {
						now, next, faults, blk, bpos, capped, lost, recov = walkRecover(r, now, next, faults, phRecovery, horizon, blk, bpos, lost, recov)
					}
				}
				// Exit checkpoint of the LIBRARY dataset, retried under ABFT
				// reconstruction.
				for !capped {
					if end := now + phCkpt; end <= next && end <= horizon {
						now = end
						ck += phCkpt
						break
					}
					if now+phCkpt <= next {
						// success-capped.
						now += phCkpt
						capped = true
						ck += phCkpt
						break
					}
					done := next - now
					now = next
					faults++
					for next <= now {
						if bpos == len(blk) {
							blk, bpos = r.refill(next), 0
						}
						next = blk[bpos]
						bpos++
					}
					if now > horizon {
						capped = true
						ck += done // failure-capped: partial checkpoint accounted
						break
					}
					lost += done
					if now+phRecovery <= next {
						// Recovery completes on the first attempt.
						now += phRecovery
						recov += phRecovery
						if now > horizon {
							capped = true
						}
					} else {
						now, next, faults, blk, bpos, capped, lost, recov = walkRecover(r, now, next, faults, phRecovery, horizon, blk, bpos, lost, recov)
					}
				}

			case phaseShort:
				phWork, phTrailing, phRecovery := ph.work, ph.trailing, ph.recovery
				// All-or-nothing: a failure loses all progress since phase
				// start, including the trailing checkpoint if it had begun.
				for !capped {
					if end := now + phWork + phTrailing; end <= next && end <= horizon {
						// success straight through work and trailing checkpoint.
						now = end
						work += phWork
						ck += phTrailing
						break
					}
					if now+phWork <= next {
						now += phWork
						if now > horizon {
							// success-capped: the trailing checkpoint drains.
							capped = true
							work += phWork
							break
						}
						if phTrailing > 0 {
							if now+phTrailing <= next {
								now += phTrailing
								capped = now > horizon // success(-capped)
								work += phWork
								ck += phTrailing
								break
							}
							cd := next - now
							now = next
							faults++
							for next <= now {
								if bpos == len(blk) {
									blk, bpos = r.refill(next), 0
								}
								next = blk[bpos]
								bpos++
							}
							if now > horizon {
								capped = true
								work += phWork
								ck += cd // failure-capped partial checkpoint
								break
							}
							lost += phWork + cd
							if now+phRecovery <= next {
								// Recovery completes on the first attempt.
								now += phRecovery
								recov += phRecovery
								capped = now > horizon
							} else {
								now, next, faults, blk, bpos, capped, lost, recov = walkRecover(r, now, next, faults, phRecovery, horizon, blk, bpos, lost, recov)
							}
							continue
						}
						work += phWork
						break
					}
					// Failure during the work chunk.
					done := next - now
					now = next
					faults++
					for next <= now {
						if bpos == len(blk) {
							blk, bpos = r.refill(next), 0
						}
						next = blk[bpos]
						bpos++
					}
					if now > horizon {
						capped = true
						work += done // failure-capped: partial kept by run's ok
						break
					}
					lost += done
					if now+phRecovery <= next {
						// Recovery completes on the first attempt.
						now += phRecovery
						recov += phRecovery
						if now > horizon {
							capped = true
						}
					} else {
						now, next, faults, blk, bpos, capped, lost, recov = walkRecover(r, now, next, faults, phRecovery, horizon, blk, bpos, lost, recov)
					}
				}

			case phasePeriodic:
				phCkpt, phRecovery := ph.ckpt, ph.recovery
				sched := r.chunkSched[pi]
				for ci := 0; ci < len(sched) && !capped; {
					chunk := sched[ci]
					if end := now + chunk + phCkpt; end <= next && end <= horizon {
						// success: chunk and checkpoint both complete — the
						// dominant iteration, fully in registers.
						now = end
						work += chunk
						ck += phCkpt
						ci++
						continue
					}
					if now+chunk <= next {
						now += chunk
						if now > horizon {
							// success-capped: the checkpoint drains.
							capped = true
							work += chunk
							ci++
							continue
						}
						if now+phCkpt <= next {
							now += phCkpt
							capped = now > horizon // success(-capped)
							work += chunk
							ck += phCkpt
							ci++
							continue
						}
						cd := next - now
						now = next
						faults++
						for next <= now {
							if bpos == len(blk) {
								blk, bpos = r.refill(next), 0
							}
							next = blk[bpos]
							bpos++
						}
						if now > horizon {
							capped = true
							work += chunk
							ck += cd // failure-capped partial checkpoint
							ci++
							continue
						}
						// Roll back to the last completed checkpoint.
						lost += chunk + cd
						if now+phRecovery <= next {
							// Recovery completes on the first attempt.
							now += phRecovery
							recov += phRecovery
							if now > horizon {
								capped = true
							}
						} else {
							now, next, faults, blk, bpos, capped, lost, recov = walkRecover(r, now, next, faults, phRecovery, horizon, blk, bpos, lost, recov)
						}
						continue
					}
					// Failure during the chunk.
					done := next - now
					now = next
					faults++
					for next <= now {
						if bpos == len(blk) {
							blk, bpos = r.refill(next), 0
						}
						next = blk[bpos]
						bpos++
					}
					if now > horizon {
						capped = true
						work += done // failure-capped: run reports ok
						ci++
						continue
					}
					lost += done
					if now+phRecovery <= next {
						// Recovery completes on the first attempt.
						now += phRecovery
						recov += phRecovery
						if now > horizon {
							capped = true
						}
					} else {
						now, next, faults, blk, bpos, capped, lost, recov = walkRecover(r, now, next, faults, phRecovery, horizon, blk, bpos, lost, recov)
					}
				}

			default:
				panic("sim: unknown phase kind")
			}
		}
	}

	r.last = blk
	// Feed the adaptive fill sizing with what this replica actually used.
	consumed := r.drawn - (len(blk) - bpos)
	if r.drawEWMA == 0 {
		r.drawEWMA = consumed
	} else {
		r.drawEWMA += (consumed - r.drawEWMA) / 4
	}

	res := RunResult{
		TFinal: now, Faults: faults, Truncated: capped,
		Breakdown: Breakdown{Work: work, Ckpt: ck, Lost: lost, Recovery: recov},
	}
	if capped {
		res.Waste = 1
	} else if now > 0 {
		res.Waste = 1 - r.useful/now
		if res.Waste < 0 {
			res.Waste = 0
		}
	}
	return res
}
