// Package vproc is a virtual process runtime: a set of goroutine-backed
// processes with private datasets, coordinated checkpointing, failure
// injection and restart. On top of it, Composite implements the Section III
// protocol as executable code — periodic coordinated checkpoints and
// rollback/replay during GENERAL phases, forced partial checkpoints at
// library boundaries, and ABFT forward recovery inside LIBRARY phases — so
// the protocol can be exercised on live application state, not only in the
// discrete-event simulator.
//
// Failure model: the injector strikes at superstep boundaries; a failure
// invalidates the superstep in progress, destroys the victim's datasets, and
// triggers the protocol's recovery path (rollback+replay in GENERAL phases,
// checksum reconstruction in LIBRARY phases). This is the cooperative
// equivalent of a process crash in a BSP application and keeps the recovery
// semantics exact; see DESIGN.md §5-S1.
package vproc

import (
	"errors"
	"fmt"
	"sync"

	"abftckpt/internal/ckpt"
	"abftckpt/internal/rng"
	"abftckpt/internal/store"
)

// ErrDeadProcess is returned when work is scheduled on a failed process that
// has not been recovered.
var ErrDeadProcess = errors.New("vproc: process is dead")

// Proc is one virtual process with named local datasets.
type Proc struct {
	Rank  int
	Data  map[string][]float64
	alive bool
}

// Alive reports whether the process is currently up.
func (p *Proc) Alive() bool { return p.alive }

// Injector decides when failures strike. It draws at superstep granularity:
// each superstep fails with probability Prob, killing a uniformly chosen
// process. A nil *Injector never fails.
type Injector struct {
	Prob float64
	src  *rng.Source
	// Forced failures: map superstep counter -> rank to kill (takes
	// precedence over the random draw; used by tests).
	Forced map[int]int
	step   int
}

// NewInjector builds a random injector with per-superstep probability p.
func NewInjector(p float64, seed uint64) *Injector {
	return &Injector{Prob: p, src: rng.New(seed)}
}

// next returns the rank to kill at this superstep, or -1.
func (inj *Injector) next(n int) int {
	if inj == nil {
		return -1
	}
	s := inj.step
	inj.step++
	if inj.Forced != nil {
		if rank, ok := inj.Forced[s]; ok {
			return rank
		}
	}
	if inj.src != nil && inj.Prob > 0 && inj.src.Float64() < inj.Prob {
		return inj.src.Intn(n)
	}
	return -1
}

// RunStats counts protocol events during a run.
type RunStats struct {
	Supersteps     int
	Failures       int
	GeneralFails   int
	LibraryFails   int
	FullCkpts      int
	PartialCkpts   int
	Rollbacks      int
	ReplayedSteps  int
	AbftRecoveries int
	// SavedValues is the total number of float64 values written to the
	// checkpoint store — the I/O volume proxy behind the paper's C and CL
	// costs.
	SavedValues int
}

// Runtime manages the virtual processes and their checkpoints.
type Runtime struct {
	Procs    []*Proc
	Store    store.ResultStore
	Injector *Injector
	Stats    RunStats
	version  uint64
}

// NewRuntime creates n live processes over the given checkpoint store.
func NewRuntime(n int, rs store.ResultStore, inj *Injector) *Runtime {
	if n <= 0 {
		panic("vproc: need at least one process")
	}
	rt := &Runtime{Store: rs, Injector: inj}
	for i := 0; i < n; i++ {
		rt.Procs = append(rt.Procs, &Proc{Rank: i, Data: make(map[string][]float64), alive: true})
	}
	return rt
}

// N returns the process count.
func (rt *Runtime) N() int { return len(rt.Procs) }

// Parallel runs fn concurrently on every live process (one goroutine each)
// and returns the first error.
func (rt *Runtime) Parallel(fn func(p *Proc) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(rt.Procs))
	for _, p := range rt.Procs {
		if !p.alive {
			errs[p.Rank] = fmt.Errorf("%w: rank %d", ErrDeadProcess, p.Rank)
			continue
		}
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			errs[p.Rank] = fn(p)
		}(p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Kill marks rank dead and destroys its datasets (a crash loses the node's
// memory).
func (rt *Runtime) Kill(rank int) {
	p := rt.Procs[rank]
	p.alive = false
	p.Data = make(map[string][]float64)
	rt.Stats.Failures++
}

// Respawn brings a dead rank back up with empty state (the spare node of the
// paper's downtime D).
func (rt *Runtime) Respawn(rank int) {
	rt.Procs[rank].alive = true
}

// ckptName addresses a checkpoint slot for a rank.
func ckptName(slot string, rank int) string {
	return fmt.Sprintf("%s-r%d", slot, rank)
}

// Checkpoint saves the named datasets of every process under slot (a
// coordinated, possibly partial, checkpoint). Datasets absent on a process
// are skipped.
func (rt *Runtime) Checkpoint(slot string, datasets []string) error {
	rt.version++
	for _, p := range rt.Procs {
		if !p.alive {
			return fmt.Errorf("%w: rank %d during checkpoint", ErrDeadProcess, p.Rank)
		}
		parts := make(map[string][]float64)
		for _, name := range datasets {
			if d, ok := p.Data[name]; ok {
				parts[name] = d
				rt.Stats.SavedValues += len(d)
			}
		}
		if err := ckpt.Save(rt.Store, ckptName(slot, p.Rank), ckpt.NewSnapshot(rt.version, parts)); err != nil {
			return err
		}
	}
	return nil
}

// Restore reloads the named datasets of one rank from slot, leaving other
// datasets untouched.
func (rt *Runtime) Restore(slot string, rank int, datasets []string) error {
	snap, err := ckpt.Load(rt.Store, ckptName(slot, rank))
	if err != nil {
		return err
	}
	p := rt.Procs[rank]
	for _, name := range datasets {
		if d, ok := snap.Parts[name]; ok {
			p.Data[name] = append([]float64(nil), d...)
		}
	}
	return nil
}

// RestoreAll reloads the named datasets of every rank from slot.
func (rt *Runtime) RestoreAll(slot string, datasets []string) error {
	for _, p := range rt.Procs {
		if err := rt.Restore(slot, p.Rank, datasets); err != nil {
			return err
		}
	}
	return nil
}

// Gather concatenates a dataset across ranks in rank order.
func (rt *Runtime) Gather(dataset string) []float64 {
	var out []float64
	for _, p := range rt.Procs {
		out = append(out, p.Data[dataset]...)
	}
	return out
}
