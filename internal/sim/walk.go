package sim

// This file is the fail-stop replica walker: the Section V protocol walk
// over one failure stream, with every piece of simulation state (clock,
// next failure, block cursor, accumulators) held in locals of a single
// function so the inner loops run out of registers instead of chasing runner
// fields. It is the only fail-stop walker in production code: replicas
// drawn live or from a cohort's shared stream, the exponential law and
// every other law all run through it.
//
// The failure stream arrives in blocks of absolute arrival times from the
// runner's blockSource (blocks.go), and each failure consumes the next slot
// with a plain load. The recovery loop lives in a value-passing helper
// (walkRecover) that takes and returns plain scalars.
//
// The reference is the scalar walker of the package's tests
// (oracle_test.go), which steps an interface-driven failure source one
// arrival at a time. Every float operation here replicates it in the same
// order and association, so results are bit-identical (pinned by
// TestReplicaRunnerMatchesSimulateOnce and FuzzWalkerMatchesSimulateOnce).
// When editing, change the reference first, then mirror it here; the
// equivalence tests will catch any drift exactly. The comments below name
// the reference's operations: run (one action against the next failure)
// and recover (a downtime+recovery retried until it completes).

// walkRecover completes one downtime+recovery operation of the given cost,
// restarting it from scratch every time a failure interrupts it — exactly
// the reference's recover over scalar state. It must be entered with
// capped == false; it returns the updated (now, next, faults, blk, bpos,
// capped, lost, recov).
func walkRecover(s *blockSource, now, next float64, faults int, cost, horizon float64, blk []float64, bpos int, lost, recov float64) (float64, float64, int, []float64, int, bool, float64, float64) {
	for {
		if now+cost <= next {
			now += cost
			recov += cost
			return now, next, faults, blk, bpos, now > horizon, lost, recov
		}
		done := next - now
		now = next
		faults++
		next, blk, bpos = s.after(now, next, blk, bpos)
		if now > horizon {
			recov += done
			return now, next, faults, blk, bpos, true, lost, recov
		}
		lost += done
	}
}

// walk executes one replica. The comments name the branch of the
// reference's run each case mirrors: "success" (the operation fits
// before the next failure), "success-capped" (fits, but crosses the safety
// horizon: accounted, then the run drains) and "failure-capped" (the
// interrupting failure itself is beyond the horizon, which run reports as
// ok with partial progress accounted by the caller).
func (r *replicaRunner) walk() RunResult {
	horizon := r.horizon
	phases := r.phases
	epochs := r.cfg.Epochs
	blocks := r.blocks

	var (
		now    float64
		faults int
		capped bool

		work, ck, lost, recov float64 // Breakdown accumulators
	)
	// First failure: the stream's first arrival, then the reference's
	// top-up past time 0.
	blk := blocks.refill(0)
	next, blk, bpos := blocks.after(0, blk[0], blk, 1)

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
							blk, bpos = blocks.refill(next), 0
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
						now, next, faults, blk, bpos, capped, lost, recov = walkRecover(blocks, now, next, faults, phRecovery, horizon, blk, bpos, lost, recov)
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
							blk, bpos = blocks.refill(next), 0
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
						now, next, faults, blk, bpos, capped, lost, recov = walkRecover(blocks, now, next, faults, phRecovery, horizon, blk, bpos, lost, recov)
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
									blk, bpos = blocks.refill(next), 0
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
								now, next, faults, blk, bpos, capped, lost, recov = walkRecover(blocks, now, next, faults, phRecovery, horizon, blk, bpos, lost, recov)
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
							blk, bpos = blocks.refill(next), 0
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
						now, next, faults, blk, bpos, capped, lost, recov = walkRecover(blocks, now, next, faults, phRecovery, horizon, blk, bpos, lost, recov)
					}
				}

			case phasePeriodic:
				phCkpt, phRecovery := ph.ckpt, ph.recovery
				sched := ph.chunks
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
								blk, bpos = blocks.refill(next), 0
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
							now, next, faults, blk, bpos, capped, lost, recov = walkRecover(blocks, now, next, faults, phRecovery, horizon, blk, bpos, lost, recov)
						}
						continue
					}
					// Failure during the chunk.
					done := next - now
					now = next
					faults++
					for next <= now {
						if bpos == len(blk) {
							blk, bpos = blocks.refill(next), 0
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
						now, next, faults, blk, bpos, capped, lost, recov = walkRecover(blocks, now, next, faults, phRecovery, horizon, blk, bpos, lost, recov)
					}
				}

			default:
				panic("sim: unknown phase kind")
			}
		}
	}

	r.last = blk
	blocks.finish(len(blk) - bpos)

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
