// Heat solver: run the paper's motivating application class — an iterative
// code alternating a stencil-style GENERAL phase with an ABFT-protected
// LIBRARY phase — on the virtual process runtime under the composite
// protocol, with random failures injected, and prove that the final state
// matches the failure-free execution.
package main

import (
	"fmt"
	"math"
	"os"

	"abftckpt/internal/app"
	"abftckpt/internal/store"
	"abftckpt/internal/vproc"
)

func run(inj *vproc.Injector, epochs int) (*app.Heat, error) {
	cfg := app.Config{
		DataProcs:     6,
		N:             48,
		NB:            4,
		BlocksPerProc: 2,
		LibSteps:      8,
		GeneralSteps:  10,
		CkptEvery:     3,
		Seed:          7,
	}
	rt := vproc.NewRuntime(cfg.DataProcs+1, store.NewMemory(), inj)
	h := app.New(cfg, rt)
	return h, h.Run(epochs)
}

func main() {
	const epochs = 3

	clean, err := run(nil, epochs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fault-free run:", err)
		os.Exit(1)
	}

	// ~6% failure probability per superstep: a hostile platform.
	faulty, err := run(vproc.NewInjector(0.06, 99), epochs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faulty run:", err)
		os.Exit(1)
	}

	s := faulty.RT.Stats
	fmt.Printf("failures injected:       %d (%d in GENERAL phases, %d in LIBRARY phases)\n",
		s.Failures, s.GeneralFails, s.LibraryFails)
	fmt.Printf("rollbacks (ckpt/restart): %d, supersteps replayed: %d\n", s.Rollbacks, s.ReplayedSteps)
	fmt.Printf("ABFT forward recoveries:  %d (no library work re-executed)\n", s.AbftRecoveries)
	fmt.Printf("checkpoints:              %d full periodic, %d forced partial\n", s.FullCkpts, s.PartialCkpts)

	var maxDiff float64
	cf, ff := clean.FieldData(), faulty.FieldData()
	for i := range cf.Data {
		if d := math.Abs(cf.Data[i] - ff.Data[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("max |field difference| vs failure-free run: %.3g\n", maxDiff)
	if maxDiff > 1e-6 {
		fmt.Fprintln(os.Stderr, "FAIL: results diverged")
		os.Exit(1)
	}
	fmt.Println("ok: failures changed nothing but the runtime")
}
