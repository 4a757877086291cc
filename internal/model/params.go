// Package model implements the first-order analytical performance model of
// Bosilca et al., "Assessing the Impact of ABFT and Checkpoint Composite
// Strategies" (APDCM/IPDPSW 2014), Section IV.
//
// The model predicts, for one epoch of an application alternating a GENERAL
// phase (protected by coordinated periodic checkpointing) and a LIBRARY phase
// (protectable by ABFT), the expected execution time and waste of three
// protocols:
//
//   - PurePeriodicCkpt: periodic checkpointing during the whole epoch.
//   - BiPeriodicCkpt: periodic checkpointing with an incremental (cheaper)
//     checkpoint and its own optimal period during the LIBRARY phase.
//   - AbftPeriodicCkpt: the paper's composite — ABFT inside the LIBRARY
//     phase (periodic checkpointing disabled there), periodic checkpointing
//     in the GENERAL phase, forced partial checkpoints at the phase switch.
//
// All durations are in seconds (any consistent unit works; the constants
// Minute/Hour/Day/Week are provided for readability).
package model

import (
	"errors"
	"fmt"
	"math"
)

// Time unit helpers (seconds).
const (
	Second = 1.0
	Minute = 60.0
	Hour   = 3600.0
	Day    = 86400.0
	Week   = 7 * Day
)

// Params gathers the application and platform parameters of Section IV-A.
type Params struct {
	// T0 is the fault-free, unprotected duration of one epoch.
	T0 float64
	// Alpha is the fraction of T0 spent in the LIBRARY phase: TL = Alpha*T0.
	Alpha float64
	// Mu is the platform MTBF (mu = mu_individual / N for N nodes).
	Mu float64
	// C is the duration of a full coordinated checkpoint (C = CL + CLbar).
	C float64
	// R is the duration of a full recovery (reload of the complete dataset).
	R float64
	// D is the downtime (reboot or spare activation) after a failure.
	D float64
	// Rho is the fraction of the memory touched by the LIBRARY phase:
	// ML = Rho*M, hence CL = Rho*C.
	Rho float64
	// Phi >= 1 is the ABFT slowdown factor: a LIBRARY computation of t
	// seconds takes Phi*t seconds under ABFT protection.
	Phi float64
	// Recons is ReconsABFT, the time to reconstruct the LIBRARY dataset from
	// ABFT checksums after a failure.
	Recons float64
	// RLbar is the time to reload the checkpoint of the REMAINDER dataset
	// only. When zero, it defaults to (1-Rho)*R (remainder share of a full
	// recovery), matching the paper's "in many cases RLbar = CLbar".
	RLbar float64
}

// Validate reports whether the parameters are self-consistent.
func (p Params) Validate() error {
	switch {
	case p.T0 < 0:
		return errors.New("model: T0 must be non-negative")
	case p.Alpha < 0 || p.Alpha > 1:
		return errors.New("model: Alpha must be in [0,1]")
	case p.Mu <= 0:
		return errors.New("model: Mu must be positive")
	case p.C < 0 || p.R < 0 || p.D < 0:
		return errors.New("model: C, R, D must be non-negative")
	case p.Rho < 0 || p.Rho > 1:
		return errors.New("model: Rho must be in [0,1]")
	case p.Phi < 1:
		return errors.New("model: Phi must be >= 1")
	case p.Recons < 0:
		return errors.New("model: Recons must be non-negative")
	case p.RLbar < 0:
		return errors.New("model: RLbar must be non-negative")
	}
	for _, v := range []float64{p.T0, p.Alpha, p.Mu, p.C, p.R, p.D, p.Rho, p.Phi, p.Recons, p.RLbar} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("model: params must be finite")
		}
	}
	return nil
}

// TL returns the LIBRARY phase duration Alpha*T0.
func (p Params) TL() float64 { return p.Alpha * p.T0 }

// TG returns the GENERAL phase duration (1-Alpha)*T0.
func (p Params) TG() float64 { return (1 - p.Alpha) * p.T0 }

// CL returns the cost of checkpointing the LIBRARY dataset: Rho*C.
func (p Params) CL() float64 { return p.Rho * p.C }

// CLbar returns the cost of checkpointing the REMAINDER dataset: (1-Rho)*C.
func (p Params) CLbar() float64 { return (1 - p.Rho) * p.C }

// EffectiveRLbar returns RLbar, defaulting to (1-Rho)*R when unset.
func (p Params) EffectiveRLbar() float64 {
	if p.RLbar > 0 {
		return p.RLbar
	}
	return (1 - p.Rho) * p.R
}

// String renders the parameters with their units (seconds for durations,
// fractions for alpha, rho; phi is a slowdown factor >= 1).
func (p Params) String() string {
	return fmt.Sprintf("Params{T0=%gs, alpha=%g, mu=%gs, C=%gs, R=%gs, D=%gs, rho=%g, phi=%g, recons=%gs}",
		p.T0, p.Alpha, p.Mu, p.C, p.R, p.D, p.Rho, p.Phi, p.Recons)
}

// Fig7Params returns the scenario of the paper's Figure 7: a one-week epoch,
// C = R = 10 min, D = 1 min, rho = 0.8, phi = 1.03, ReconsABFT = 2 s, with
// the given MTBF and LIBRARY-time fraction.
func Fig7Params(mu, alpha float64) Params {
	return Params{
		T0:     Week,
		Alpha:  alpha,
		Mu:     mu,
		C:      10 * Minute,
		R:      10 * Minute,
		D:      1 * Minute,
		Rho:    0.8,
		Phi:    1.03,
		Recons: 2 * Second,
	}
}
