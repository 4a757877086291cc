package main

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"abftckpt/internal/scenario"
)

// keepOps is how many traced operations keep their spans for the Chrome
// trace file.
const keepOps = 2

// layerAcc sums per-layer measurements over the traced operations of a
// run; report turns the sums into per-operation means and ratios. Keys
// starting with "_" are inputs of ratios, not metrics.
type layerAcc struct {
	n   int
	sum map[string]float64
}

func newLayerAcc() *layerAcc { return &layerAcc{sum: map[string]float64{}} }

func (a *layerAcc) add(name string, v float64) { a.sum[name] += v }

// report writes the per-operation mean of every summed metric, then the
// ratio metrics.
func (a *layerAcc) report(r *report) {
	if a.n == 0 {
		return
	}
	for _, m := range perLayer {
		if v, ok := a.sum[m.Name]; ok {
			r.values[m.Name] = v / float64(a.n)
		}
	}
	ratio := func(name string, num, den float64) {
		if den > 0 {
			r.values[name] = num / den
		}
	}
	ratio("scenario.exec_us_per_cell", a.sum["scenario.exec_ms"]*1e3, a.sum["scenario.cells_executed"])
	ratio("sim.replicas_per_s", a.sum["_replicas"], a.sum["_sim_exec_ms"]/1e3)
	ratio("trace.coverage", a.sum["_covered_ms"], a.sum["_op_ms"])
	ratio("shard.cells_per_request", a.sum["_shard_cells"], a.sum["_shards"])
}

// measureIterations runs op back to back until the timed phase is over
// (at least twice). Each operation starts after a forced collection, so
// it begins from a clean heap the way a fresh CLI process does. In a
// traced run every second operation is traced; the end-to-end numbers
// come from the untraced ones, and the difference of the two medians is
// the tracing overhead.
func measureIterations(cfg *config, r *report, log *spanLog, op func(i int, traced bool) (time.Duration, []string, error)) {
	var plain, traced []float64
	var tracedWall, tracedCPU time.Duration
	var allocBytes, gcCycles float64
	kept := 0
	t0 := time.Now()
	for i := 0; i < 2 || time.Since(t0) < cfg.seconds; i++ {
		runtime.GC()
		tr := cfg.trace && i%2 == 1
		if tr && kept < keepOps {
			log.record(true, i)
			kept++
		}
		a0, g0 := heapCounters()
		c0, w0 := cpuTime(), time.Now()
		d, bad, err := op(i, tr)
		log.record(false, 0)
		if tr {
			tracedWall += time.Since(w0)
			tracedCPU += cpuTime() - c0
			a1, g1 := heapCounters()
			allocBytes += float64(a1 - a0)
			gcCycles += float64(g1 - g0)
		}
		r.attempted++
		switch {
		case err != nil:
			r.fail("operation %d: %v", i, err)
			continue
		case len(bad) > 0:
			r.fail("operation %d: %s", i, strings.Join(bad, "; "))
		}
		if tr {
			traced = append(traced, ms(d))
		} else {
			plain = append(plain, ms(d))
		}
	}
	r.values["latency_ms_p10"] = percentile(plain, 0.10)
	r.values["latency_ms_p50"] = percentile(plain, 0.50)
	if cfg.trace && len(traced) > 0 {
		r.values["tail.latency_ms_p90"] = percentile(plain, 0.90)
		r.values["tail.latency_ms_p99"] = percentile(plain, 0.99)
		n := float64(len(traced))
		r.values["runtime.alloc_mb_per_run"] = allocBytes / n / (1 << 20)
		r.values["runtime.gc_cycles_per_run"] = gcCycles / n
		r.values["runtime.cpu_util"] = tracedCPU.Seconds() / (tracedWall.Seconds() * float64(cfg.par))
		r.values["trace.overhead_ms"] = median(traced) - median(plain)
		r.values["scenario.hash_us"] = hashProbeUS(cfg)
	}
}

// heapCounters reads the cumulative heap allocation bytes and completed
// GC cycles.
func heapCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark is one Runner hook call: 's' OnScenario, 'a' OnArtifact, 'e'
// OnEvent.
type mark struct {
	t    int64
	kind byte
}

// cellEvent is one CellEvent with the time its hook ran.
type cellEvent struct {
	at, elapsed int64
	cached      bool
	hash        string
}

// runTrace rebuilds the layers of one Runner.Run call from the times its
// hooks fire. The hooks are never called concurrently, so the slices
// need no lock.
type runTrace struct {
	log                        *spanLog
	start, plan, end, rendered int64
	first                      int64 // first OnScenario or OnArtifact: preload is over
	marks                      []mark
	events                     []cellEvent
}

func (rt *runTrace) attach(r *scenario.Runner, unique int) {
	rt.marks = make([]mark, 0, 2*unique+64)
	rt.events = make([]cellEvent, 0, unique)
	r.OnPlan = func(scenario.Plan) { rt.plan = rt.log.now() }
	r.OnScenario = func(scenario.ScenarioEvent) { rt.mark('s') }
	r.OnArtifact = func(scenario.Artifact) { rt.mark('a') }
	r.OnEvent = func(ev scenario.CellEvent) {
		t := rt.mark('e')
		rt.events = append(rt.events, cellEvent{at: t, elapsed: int64(ev.Elapsed), cached: ev.Cached, hash: ev.Hash})
	}
}

func (rt *runTrace) mark(kind byte) int64 {
	t := rt.log.now()
	if rt.first == 0 && kind != 'e' {
		rt.first = t
	}
	rt.marks = append(rt.marks, mark{t, kind})
	return t
}

// analyze splits the run into contiguous phases and their children, adds
// the layer sums to acc and records the spans:
//
//	scenario.run       Run call to return
//	  scenario.plan      to OnPlan: expand, hash, dedupe
//	  scenario.preload   to the first OnScenario/OnArtifact: cache lookups
//	                     (and the first scenario's assembly when it was
//	                     fully cached)
//	  scenario.settle    to the first executed cell: cached scenarios'
//	                     assembly and cached-cell events
//	    scenario.assemble
//	  scenario.execute   to the last CellEvent
//	    cell             [event − Elapsed, event], one per executed cell
//	    scenario.assemble
//	  scenario.tail      to the return
//	scenario.render    CSV rendering after the return
//
// A phase's self time is the part its children do not cover; in the
// execute phase it is counted per worker (arena builds, scheduling, lock
// waits), so parallel cells are not double-counted.
func (rt *runTrace) analyze(par int, a *layerAcc, runs map[string]int) {
	last := rt.first
	execStart := int64(-1)
	var cells []interval
	var execSum, simSum int64
	var replicas float64
	executed := 0
	for _, ev := range rt.events {
		last = max(last, ev.at)
		if ev.cached {
			continue
		}
		iv := interval{max(ev.at-ev.elapsed, rt.first), ev.at}
		cells = append(cells, iv)
		execSum += ev.elapsed
		executed++
		if n, ok := runs[ev.hash]; ok {
			replicas += float64(n)
			simSum += ev.elapsed
		}
		if execStart < 0 || iv.start < execStart {
			execStart = iv.start
		}
	}
	if execStart < 0 {
		execStart = last
	}
	var asm []interval
	var asmSum int64
	for k := 1; k < len(rt.marks); k++ {
		if m := rt.marks[k]; m.kind == 'a' && m.t != rt.first {
			asm = append(asm, interval{rt.marks[k-1].t, m.t})
			asmSum += m.t - rt.marks[k-1].t
		}
	}
	settleSelf := (execStart - rt.first) - covered(asm, rt.first, execStart)
	execD := last - execStart
	var asmExec int64
	for _, iv := range asm {
		asmExec += covered([]interval{iv}, execStart, last)
	}
	execSelf := min(max(execD-(execSum+asmExec)/int64(par), 0), execD)
	runD := rt.end - rt.start

	a.add("scenario.plan_ms", ms(time.Duration(rt.plan-rt.start)))
	a.add("scenario.preload_ms", ms(time.Duration(rt.first-rt.plan)))
	a.add("scenario.assemble_ms", ms(time.Duration(asmSum)))
	a.add("scenario.exec_ms", ms(time.Duration(execSum)))
	a.add("scenario.cells_executed", float64(executed))
	a.add("scenario.exec_self_ms", ms(time.Duration(execSelf)))
	a.add("scenario.tail_ms", ms(time.Duration(rt.end-last)))
	a.add("scenario.render_ms", ms(time.Duration(rt.rendered-rt.end)))
	a.add("_replicas", replicas)
	a.add("_sim_exec_ms", ms(time.Duration(simSum)))
	a.add("_covered_ms", ms(time.Duration(runD-settleSelf-execSelf)))
	a.add("_op_ms", ms(time.Duration(runD)))

	l := rt.log
	op := l.add("iteration", "run", rt.start, rt.rendered, 0, nil)
	run := l.add("scenario.run", "run", rt.start, rt.end, op, nil)
	l.add("scenario.plan", "run", rt.start, rt.plan, run, nil)
	l.add("scenario.preload", "run", rt.plan, rt.first, run, nil)
	settle := l.add("scenario.settle", "run", rt.first, execStart, run, map[string]any{"self_ms": ms(time.Duration(settleSelf))})
	exec := l.add("scenario.execute", "run", execStart, last, run, map[string]any{"self_ms": ms(time.Duration(execSelf))})
	l.add("scenario.tail", "run", last, rt.end, run, nil)
	l.add("scenario.render", "run", rt.end, rt.rendered, op, nil)
	for _, iv := range asm {
		parent := exec
		if iv.end <= execStart {
			parent = settle
		}
		l.add("scenario.assemble", "cells", iv.start, iv.end, parent, nil)
	}
	for i, iv := range cells {
		l.add("cell", "cells", iv.start, iv.end, exec, map[string]any{"n": i})
	}
}
