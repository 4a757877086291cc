package sim

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/rng"
)

// The event-calendar simulators below are test oracles: independent
// implementations of the fail-stop and silent-error semantics in which every
// work chunk, checkpoint and recovery is a scheduled completion event that a
// failure event may preempt. The production walkers must agree with them
// bit for bit, replica by replica.

// calendar is the oracles' discrete-event core: events fire in time order,
// and equal-time events in the order they were scheduled.
type calendar struct {
	now    float64
	seq    uint64
	queue  eventQueue
	halted bool
}

type event struct {
	time float64
	seq  uint64
	fn   func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// Now returns the current simulation time.
func (c *calendar) Now() float64 { return c.now }

// Schedule enqueues fn at absolute time t (>= Now).
func (c *calendar) Schedule(t float64, fn func()) {
	if t < c.now || math.IsNaN(t) {
		panic("calendar: scheduling into the past")
	}
	c.seq++
	heap.Push(&c.queue, event{time: t, seq: c.seq, fn: fn})
}

// Halt stops Run after the current event returns.
func (c *calendar) Halt() { c.halted = true }

// Run fires events until the calendar is empty or Halt is called.
func (c *calendar) Run() {
	for !c.halted && c.queue.Len() > 0 {
		ev := heap.Pop(&c.queue).(event)
		c.now = ev.time
		ev.fn()
	}
}

// SimulateOnceDES executes one run with the same protocol semantics as
// SimulateOnce, driven by the event calendar.
func SimulateOnceDES(cfg Config, source FailureSource) RunResult {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	phases := epochPhases(cfg.Protocol, cfg.Params, cfg.Safeguard)
	useful := float64(cfg.Epochs) * cfg.Params.T0
	r := &desRunner{
		eng:     &calendar{},
		source:  source,
		horizon: cfg.MaxTimeFactor * math.Max(useful, 1),
	}

	// Chain epochs and phases as continuations.
	var runFrom func(epoch, phase int)
	runFrom = func(epoch, phase int) {
		if r.capped || epoch >= cfg.Epochs {
			return
		}
		if phase >= len(phases) {
			runFrom(epoch+1, 0)
			return
		}
		r.runPhase(phases[phase], func() { runFrom(epoch, phase+1) })
	}
	r.eng.Schedule(0, func() { runFrom(0, 0) })
	r.eng.Run()

	res := RunResult{TFinal: r.eng.Now(), Faults: r.faults, Truncated: r.capped, Breakdown: r.b}
	if r.capped {
		res.Waste = 1
	} else if res.TFinal > 0 {
		res.Waste = 1 - useful/res.TFinal
		if res.Waste < 0 {
			res.Waste = 0
		}
	}
	return res
}

// desRunner holds the event-driven run state.
type desRunner struct {
	eng     *calendar
	source  FailureSource
	b       Breakdown
	faults  int
	horizon float64
	capped  bool
}

// attempt schedules an operation of duration d: either its completion event
// fires (onOK) or the next failure preempts it (onFail with the completed
// fraction). Reaching the safety horizon halts the run.
func (r *desRunner) attempt(d float64, onOK func(), onFail func(done float64)) {
	start := r.eng.Now()
	next := r.source.NextAfter(start)
	if start+d <= next {
		r.eng.Schedule(start+d, func() {
			if r.checkHorizon() {
				return
			}
			onOK()
		})
		return
	}
	r.eng.Schedule(next, func() {
		r.faults++
		if r.checkHorizon() {
			return
		}
		onFail(next - start)
	})
}

func (r *desRunner) checkHorizon() bool {
	if r.eng.Now() > r.horizon {
		r.capped = true
		r.eng.Halt()
		return true
	}
	return false
}

// recoverThen completes one downtime+recovery of the given cost, restarting
// on failure, then continues.
func (r *desRunner) recoverThen(cost float64, cont func()) {
	r.attempt(cost,
		func() {
			r.b.Recovery += cost
			cont()
		},
		func(done float64) {
			r.b.Lost += done
			r.recoverThen(cost, cont)
		})
}

// runPhase executes one phase, then calls done.
func (r *desRunner) runPhase(ph phaseSpec, done func()) {
	switch ph.kind {
	case phaseABFT:
		var step func(remaining float64)
		step = func(remaining float64) {
			if remaining <= 0 {
				r.exitCheckpoint(ph, done)
				return
			}
			r.attempt(remaining,
				func() {
					r.b.Work += remaining
					r.exitCheckpoint(ph, done)
				},
				func(partial float64) {
					// ABFT retains completed work.
					r.b.Work += partial
					r.recoverThen(ph.recovery, func() { step(remaining - partial) })
				})
		}
		step(ph.work)

	case phaseShort:
		var tryOnce func()
		tryOnce = func() {
			r.attempt(ph.work,
				func() {
					if ph.trailing <= 0 {
						r.b.Work += ph.work
						done()
						return
					}
					r.attempt(ph.trailing,
						func() {
							r.b.Work += ph.work
							r.b.Ckpt += ph.trailing
							done()
						},
						func(cd float64) {
							r.b.Lost += ph.work + cd
							r.recoverThen(ph.recovery, tryOnce)
						})
				},
				func(partial float64) {
					r.b.Lost += partial
					r.recoverThen(ph.recovery, tryOnce)
				})
		}
		tryOnce()

	case phasePeriodic:
		workPerPeriod := ph.period - ph.ckpt
		var period func(completed float64)
		period = func(completed float64) {
			if completed >= ph.work {
				done()
				return
			}
			chunk := math.Min(workPerPeriod, ph.work-completed)
			r.attempt(chunk,
				func() {
					r.attempt(ph.ckpt,
						func() {
							r.b.Work += chunk
							r.b.Ckpt += ph.ckpt
							period(completed + chunk)
						},
						func(cd float64) {
							r.b.Lost += chunk + cd
							r.recoverThen(ph.recovery, func() { period(completed) })
						})
				},
				func(partial float64) {
					r.b.Lost += partial
					r.recoverThen(ph.recovery, func() { period(completed) })
				})
		}
		period(0)

	default:
		panic("sim: unknown phase kind")
	}
}

// exitCheckpoint performs the ABFT exit checkpoint, retrying under ABFT
// recovery, then continues.
func (r *desRunner) exitCheckpoint(ph phaseSpec, done func()) {
	if ph.ckpt <= 0 {
		done()
		return
	}
	r.attempt(ph.ckpt,
		func() {
			r.b.Ckpt += ph.ckpt
			done()
		},
		func(cd float64) {
			r.b.Lost += cd
			r.recoverThen(ph.recovery, func() { r.exitCheckpoint(ph, done) })
		})
}

// silentOnceDES executes one run with the same semantics as
// SimulateSilentOnce, driven by the event calendar: each work chunk,
// verification, recovery and checkpoint is a scheduled completion event,
// and verification events consult the error clock for the work they cover.
func silentOnceDES(cfg SilentConfig, clock *errorClock) RunResult {
	cfg = cfg.withDefaults()
	period := silentPeriod(cfg)
	horizon := cfg.MaxTimeFactor * math.Max(cfg.Params.W, 1)
	p := cfg.Params
	eng := &calendar{}
	var b Breakdown
	detections := 0
	capped := false

	after := func(d float64, fn func()) {
		eng.Schedule(eng.Now()+d, fn)
	}
	checkHorizon := func() bool {
		if eng.Now() > horizon {
			capped = true
			eng.Halt()
			return true
		}
		return false
	}

	var pattern func(done float64)
	var attempt func(t, done float64)
	attempt = func(t, done float64) {
		// Work-completion event: silent errors never preempt execution, so
		// the chunk always runs to completion; the subsequent verification
		// event inspects the error clock over exactly that chunk.
		after(t, func() {
			count, first := clock.advance(t)
			after(p.V, func() {
				if count == 0 {
					b.Work += t
					b.Ckpt += p.V
					after(p.C, func() {
						b.Ckpt += p.C
						if !checkHorizon() {
							pattern(done + t)
						}
					})
					return
				}
				detections++
				if cfg.Mode == model.SilentForward {
					taint := t - first
					after(p.Detect+p.F+taint, func() {
						b.Work += t
						b.Lost += taint
						b.Ckpt += p.V
						b.Recovery += p.Detect + p.F
						after(p.C, func() {
							b.Ckpt += p.C
							if !checkHorizon() {
								pattern(done + t)
							}
						})
					})
					return
				}
				after(p.Detect+p.R, func() {
					b.Lost += t + p.V
					b.Recovery += p.Detect + p.R
					if !checkHorizon() {
						attempt(t, done)
					}
				})
			})
		})
	}
	pattern = func(done float64) {
		if done >= p.W {
			return
		}
		attempt(math.Min(period, p.W-done), done)
	}
	eng.Schedule(0, func() { pattern(0) })
	eng.Run()

	res := RunResult{TFinal: eng.Now(), Faults: detections, Truncated: capped, Breakdown: b}
	if capped {
		res.Waste = 1
	} else if res.TFinal > 0 {
		res.Waste = 1 - p.W/res.TFinal
		if res.Waste < 0 {
			res.Waste = 0
		}
	}
	return res
}

// The replica walker must be bit-identical to the event-calendar oracle on
// every replica, under every law: drawn live, and shared as a cohort
// shares it, with the shared prefix cut past the run, mid-run or at once
// (so the walk continues privately at its first arrival), both for the
// walk that draws the prefix and for one that reads it after. Truncated
// replicas must agree on makespan, fault count and waste.
func TestReplicaRunnerMatchesDESOracle(t *testing.T) {
	for ci, base := range equivConfigs() {
		cfg := base
		cfg.Reps = 48
		cfg = cfg.withDefaults()
		distrib := cfg.Distribution(cfg.Params.Mu)
		rr := newReplicaRunner(cfg, distrib)
		useful := float64(cfg.Epochs) * cfg.Params.T0
		var cuts []int
		for _, frac := range []float64{3, 0.3, 0} {
			cuts = append(cuts, int(frac*useful/cfg.Params.Mu))
		}
		for rep := 0; rep < cfg.Reps; rep++ {
			want := SimulateOnceDES(cfg, NewRenewalSource(distrib, rng.New(rng.At(cfg.Seed, uint64(rep)))))
			check := func(how string, got RunResult) {
				t.Helper()
				want := want
				if got.Truncated && want.Truncated {
					// A truncated run's breakdown is not shared semantics:
					// the walker drains the action that crosses the
					// horizon into it, the oracle stops at that event.
					got.Breakdown, want.Breakdown = Breakdown{}, Breakdown{}
				}
				if got != want {
					t.Fatalf("config %d rep %d %s diverged from the oracle:\n got %+v\nwant %+v", ci, rep, how, got, want)
				}
			}
			check("drawn live", rr.run(rep))
			for _, cut := range cuts {
				shareCut(rr, rep, cut)
				for walk := range 2 {
					rr.blocks.rewind(0)
					check(fmt.Sprintf("walk %d over a prefix cut at %d arrivals", walk, cut), rr.walk())
				}
			}
		}
	}
}

// The silent-error pattern walker and its event-calendar oracle agree bit
// for bit on every replica, for both recovery modes and through horizon
// truncation.
func TestSilentDESEquivalence(t *testing.T) {
	truncated := silentTestConfig(model.SilentBackward)
	truncated.Params.MuSilent = 10
	truncated.Params.Period = 1e5
	truncated.MaxTimeFactor = 10
	truncated.Reps = 5
	cases := []SilentConfig{truncated}
	for _, mode := range model.SilentRecoveries {
		cfg := silentTestConfig(mode)
		cfg.Reps = 60
		cases = append(cases, cfg)
	}
	for ci, cfg := range cases {
		cfg = cfg.withDefaults()
		distrib := cfg.Distribution(cfg.Params.MuSilent)
		walker := newSilentRunner(cfg, distrib)
		for rep := 0; rep < cfg.Reps; rep++ {
			oracleClock := newErrorClock(distrib, rng.New(rng.At(cfg.Seed, uint64(rep))))
			got, want := walker.run(rep), silentOnceDES(cfg, oracleClock)
			if got != want {
				t.Fatalf("case %d (%v) rep %d: walker and oracle differ:\nwalker %+v\noracle %+v",
					ci, cfg.Mode, rep, got, want)
			}
			if ci == 0 && !got.Truncated {
				t.Fatalf("rep %d of the livelocked case was not truncated", rep)
			}
		}
	}
}

// The timeline-based and event-calendar-based simulators are independent
// implementations of the same protocol semantics. On identical failure
// traces they must agree exactly — bitwise — on makespan, fault count and
// time breakdown, for every protocol and a wide range of scenarios.
func TestDESEquivalenceExact(t *testing.T) {
	scenarios := []model.Params{
		model.Fig7Params(model.Hour, 0.2),
		model.Fig7Params(model.Hour, 0.8),
		model.Fig7Params(4*model.Hour, 0.5),
		model.Fig7Params(30*model.Minute, 0.9), // hostile
		{T0: 1000, Alpha: 0.5, Mu: 150, C: 20, R: 10, D: 5, Rho: 0.5, Phi: 1.1, Recons: 1},
		{T0: 50, Alpha: 1, Mu: 200, C: 10, R: 10, D: 2, Rho: 0.8, Phi: 1.03, Recons: 2},
		{T0: 500, Alpha: 0, Mu: 100, C: 5, R: 5, D: 1, Phi: 1},
	}
	for si, p := range scenarios {
		for _, proto := range model.Protocols {
			for seed := uint64(0); seed < 30; seed++ {
				cfg := Config{Params: p, Protocol: proto, Epochs: 2}
				mkSource := func() FailureSource {
					return NewRenewalSource(dist.NewExponential(p.Mu), rng.New(rng.At(99, seed)))
				}
				a := SimulateOnce(cfg, mkSource())
				b := SimulateOnceDES(cfg, mkSource())
				if a.TFinal != b.TFinal || a.Faults != b.Faults {
					t.Fatalf("scenario %d %v seed %d: timeline (T=%v, f=%d) vs DES (T=%v, f=%d)",
						si, proto, seed, a.TFinal, a.Faults, b.TFinal, b.Faults)
				}
				if a.Breakdown != b.Breakdown {
					t.Fatalf("scenario %d %v seed %d: breakdown %+v vs %+v",
						si, proto, seed, a.Breakdown, b.Breakdown)
				}
				if a.Waste != b.Waste {
					t.Fatalf("scenario %d %v seed %d: waste %v vs %v", si, proto, seed, a.Waste, b.Waste)
				}
			}
		}
	}
}

// The DES variant honors scripted failures the same way.
func TestDESScriptedFailures(t *testing.T) {
	cfg := Config{
		Params:   model.Params{T0: 100, Alpha: 0, Mu: 1e12, C: 10, R: 5, D: 5, Phi: 1},
		Protocol: model.PurePeriodicCkpt,
	}
	r := SimulateOnceDES(cfg, &scripted{times: []float64{50, 55}})
	if r.TFinal != 165 || r.Faults != 2 {
		t.Fatalf("TFinal=%v faults=%d, want 165, 2", r.TFinal, r.Faults)
	}
}

// The DES variant also agrees with the analytical model on the Figure 7
// scenario (sanity: it is not merely equal to the timeline version by both
// being wrong in the same way about the trace; the model is a third,
// independent derivation).
func TestDESMatchesModel(t *testing.T) {
	p := model.Fig7Params(4*model.Hour, 0.5)
	want := model.Evaluate(model.AbftPeriodicCkpt, p, model.Options{}).Waste
	var sum float64
	const reps = 150
	for seed := uint64(0); seed < reps; seed++ {
		src := NewRenewalSource(dist.NewExponential(p.Mu), rng.New(rng.At(7, seed)))
		sum += SimulateOnceDES(Config{Params: p, Protocol: model.AbftPeriodicCkpt}, src).Waste
	}
	got := sum / reps
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("DES waste %v vs model %v", got, want)
	}
}
