// Command ftsim runs the discrete-event protocol simulator on one scenario
// and prints the measured waste (with 95% confidence interval), fault
// counts, and the analytical model's prediction for comparison.
//
// The failure process is selectable: -dist picks the family (exp, weibull,
// lognormal, gamma) and -shape its shape parameter (Weibull/gamma k, or the
// log-normal sigma); every family is normalized so the mean inter-arrival
// time equals -mtbf.
//
// Adaptive precision: -ci-rel (or -ci-abs) switches to sequential stopping —
// -reps becomes a cap and replicas run in doubling batches (first batch
// -ci-batch) until the waste CI half-width meets the target, with the
// analytic model prediction as a control variate under exponential failures.
//
// Examples:
//
//	ftsim -alpha 0.8 -mtbf 3600 -reps 1000 -protocol abft
//	ftsim -alpha 0.8 -dist weibull -shape 0.7
//	ftsim -dist lognormal -shape 1.5 -protocol all
//	ftsim -protocol abft -reps 16384 -ci-rel 0.05
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"abftckpt/internal/dist"
	"abftckpt/internal/model"
	"abftckpt/internal/sim"
)

func parseProtocol(s string) (model.Protocol, error) {
	switch strings.ToLower(s) {
	case "pure", "periodic":
		return model.PurePeriodicCkpt, nil
	case "bi", "biperiodic":
		return model.BiPeriodicCkpt, nil
	case "abft", "composite":
		return model.AbftPeriodicCkpt, nil
	case "all":
		return -1, nil
	}
	return 0, fmt.Errorf("unknown protocol %q (pure|bi|abft|all)", s)
}

func main() {
	var p model.Params
	flag.Float64Var(&p.T0, "t0", model.Week, "epoch fault-free duration (s)")
	flag.Float64Var(&p.Alpha, "alpha", 0.8, "fraction of the epoch in the LIBRARY phase")
	flag.Float64Var(&p.Mu, "mtbf", 2*model.Hour, "platform MTBF (s)")
	flag.Float64Var(&p.C, "c", 10*model.Minute, "full checkpoint duration (s)")
	flag.Float64Var(&p.R, "r", 10*model.Minute, "full recovery duration (s)")
	flag.Float64Var(&p.D, "d", model.Minute, "downtime (s)")
	flag.Float64Var(&p.Rho, "rho", 0.8, "library memory fraction")
	flag.Float64Var(&p.Phi, "phi", 1.03, "ABFT slowdown factor")
	flag.Float64Var(&p.Recons, "recons", 2, "ABFT reconstruction time (s)")
	protoFlag := flag.String("protocol", "all", "protocol to simulate (pure|bi|abft|all)")
	reps := flag.Int("reps", 1000, "independent runs to average")
	epochs := flag.Int("epochs", 1, "epochs per run")
	seed := flag.Uint64("seed", 42, "random seed")
	workers := flag.Int("workers", 0, "replica worker goroutines (0 = all cores)")
	distFlag := flag.String("dist", "exp", "failure distribution family (exp|weibull|lognormal|gamma)")
	shape := flag.Float64("shape", 1, "shape parameter (weibull/gamma k, lognormal sigma)")
	ciRel := flag.Float64("ci-rel", 0, "adaptive precision: stop when the waste CI half-width <= ci-rel * |estimate| (0 = fixed reps)")
	ciAbs := flag.Float64("ci-abs", 0, "adaptive precision: stop when the waste CI half-width <= ci-abs (0 = fixed reps)")
	ciBatch := flag.Int("ci-batch", 0, "adaptive precision: first batch size (0 = default, doubles per look)")
	flag.Parse()

	selected, err := parseProtocol(*protoFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "invalid parameters:", err)
		os.Exit(2)
	}
	makeDist, err := dist.Family(*distFlag, *shape)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	adaptive := *ciRel > 0 || *ciAbs > 0
	protocols := model.Protocols
	if selected >= 0 {
		protocols = []model.Protocol{selected}
	}
	fmt.Println(p)
	fmt.Println("failures:", makeDist(p.Mu))
	if adaptive {
		fmt.Printf("%-22s %-18s %-10s %-12s %-10s %s\n", "protocol", "sim waste (±CI)", "model", "reps", "cv ratio", "stopped")
	} else {
		fmt.Printf("%-22s %-18s %-10s %-12s %-10s\n", "protocol", "sim waste (±CI)", "model", "sim faults", "truncated")
	}
	for _, proto := range protocols {
		cfg := sim.Config{
			Params: p, Protocol: proto, Reps: *reps, Epochs: *epochs,
			Seed: *seed, Workers: *workers, Distribution: makeDist,
		}
		pred := model.Evaluate(proto, p, model.Options{})
		if adaptive {
			prec := sim.Precision{RelTarget: *ciRel, AbsTarget: *ciAbs, Batch: *ciBatch}
			if pred.Feasible {
				epochCount := *epochs
				if epochCount <= 0 {
					epochCount = 1
				}
				prec.ModelTFinal = float64(epochCount) * pred.TFinal
			}
			agg := sim.SimulateAdaptive(cfg, prec)
			cvNote := "off"
			if agg.CVActive {
				cvNote = fmt.Sprintf("%.3f", agg.CVVarianceRatio)
			}
			fmt.Printf("%-22s %.4f ±%.4f    %-10.4f %-12s %-10s %v\n",
				proto, agg.WasteEstimate, agg.WasteHalfWidth, pred.Waste,
				fmt.Sprintf("%d/%d", agg.Runs, agg.RepsCap), cvNote, agg.Stopped)
			continue
		}
		agg := sim.Simulate(cfg)
		fmt.Printf("%-22s %.4f ±%.4f    %-10.4f %-12.2f %d/%d\n",
			proto, agg.Waste.Mean, agg.Waste.CI95, pred.Waste, agg.Faults.Mean, agg.Truncated, agg.Runs)
	}
}
