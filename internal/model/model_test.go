package model

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestValidate(t *testing.T) {
	good := Fig7Params(2*Hour, 0.5)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{T0: -1, Alpha: 0.5, Mu: 1, Phi: 1},
		{T0: 1, Alpha: -0.1, Mu: 1, Phi: 1},
		{T0: 1, Alpha: 1.1, Mu: 1, Phi: 1},
		{T0: 1, Alpha: 0.5, Mu: 0, Phi: 1},
		{T0: 1, Alpha: 0.5, Mu: 1, C: -1, Phi: 1},
		{T0: 1, Alpha: 0.5, Mu: 1, Phi: 0.9},
		{T0: 1, Alpha: 0.5, Mu: 1, Phi: 1, Rho: 2},
		{T0: 1, Alpha: 0.5, Mu: 1, Phi: 1, Recons: -1},
		{T0: 1, Alpha: 0.5, Mu: math.Inf(1), Phi: 1},
		{T0: math.Inf(1), Alpha: 0.5, Mu: 1, Phi: 1},
		{T0: 1, Alpha: 0.5, Mu: 1, Phi: math.Inf(1)},
		{T0: 1, Alpha: 0.5, Mu: 1, Phi: 1, C: math.NaN()},
		{T0: 1, Alpha: 0.5, Mu: 1, Phi: 1, RLbar: math.Inf(1)},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	p := Fig7Params(2*Hour, 0.25)
	if !almostEqual(p.TL(), 0.25*Week, 1e-12) || !almostEqual(p.TG(), 0.75*Week, 1e-12) {
		t.Errorf("TL/TG = %v/%v", p.TL(), p.TG())
	}
	if !almostEqual(p.CL(), 480, 1e-12) || !almostEqual(p.CLbar(), 120, 1e-12) {
		t.Errorf("CL/CLbar = %v/%v", p.CL(), p.CLbar())
	}
	// RLbar defaults to (1-rho)*R = 120 s.
	if !almostEqual(p.EffectiveRLbar(), 120, 1e-12) {
		t.Errorf("EffectiveRLbar = %v", p.EffectiveRLbar())
	}
	p.RLbar = 37
	if p.EffectiveRLbar() != 37 {
		t.Errorf("explicit RLbar not honored")
	}
}

// Equation (11): P_opt = sqrt(2C(mu-D-R)). Hand-computed reference values.
func TestOptimalPeriodEq11(t *testing.T) {
	// C=600, mu=3600, D=60, R=600: P = sqrt(1200*2940) = 1878.2969...
	p, ok := OptimalPeriod(600, 3600, 60, 600)
	if !ok {
		t.Fatal("expected feasible")
	}
	if !almostEqual(p, math.Sqrt(1200*2940), 1e-12) {
		t.Errorf("P_opt = %v", p)
	}
	// Infeasible when mu <= D+R+C/2 = 960.
	if _, ok := OptimalPeriod(600, 960, 60, 600); ok {
		t.Error("mu = D+R+C/2 should be infeasible")
	}
	if _, ok := OptimalPeriod(600, 961, 60, 600); !ok {
		t.Error("mu just above D+R+C/2 should be feasible")
	}
	// Zero-cost checkpoints are degenerate but feasible.
	if _, ok := OptimalPeriod(0, 100, 1, 1); !ok {
		t.Error("zero-cost checkpoint should be feasible")
	}
}

// P_opt maximizes X: perturbing the period in either direction cannot
// increase X (property of Eq. (10)/(11)).
func TestOptimalPeriodIsOptimal(t *testing.T) {
	f := func(seedC, seedMu uint16) bool {
		c := 1 + float64(seedC%5000)           // [1, 5000]
		mu := 10*c + float64(seedMu%10000)*100 // comfortably feasible
		d, r := c/10, c
		popt, ok := OptimalPeriod(c, mu, d, r)
		if !ok {
			return true
		}
		xopt := PeriodicFactor(popt, c, mu, d, r)
		for _, factor := range []float64{0.5, 0.9, 0.99, 1.01, 1.1, 2} {
			if PeriodicFactor(popt*factor, c, mu, d, r) > xopt+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestYoungDalyComparable(t *testing.T) {
	// For small C/mu the three period formulas agree to first order.
	c, mu, d, r := 60.0, 86400.0, 0.0, 0.0
	eq11, _ := OptimalPeriod(c, mu, d, r)
	young := YoungPeriod(c, mu)
	daly := DalyPeriod(c, mu, d, r)
	if math.Abs(eq11-young)/young > 0.01 {
		t.Errorf("eq11 %v vs young %v", eq11, young)
	}
	if math.Abs(daly-young)/young > 0.05 {
		t.Errorf("daly %v vs young %v", daly, young)
	}
	// Daly's degenerate branch.
	if got := DalyPeriod(100, 10, 5, 5); got != 20 {
		t.Errorf("daly degenerate = %v, want mu+D+R = 20", got)
	}
}

// Hand-computed PurePeriodicCkpt waste for the Figure 7 scenario.
// mu=3600: P=1878.30, X=(1-600/1878.30)(1-(660+939.15)/3600)=0.68056*0.55579.
func TestPurePeriodicHandComputed(t *testing.T) {
	p := Fig7Params(Hour, 0.5)
	res := Evaluate(PurePeriodicCkpt, p, Options{})
	if !res.Feasible {
		t.Fatal("expected feasible")
	}
	popt := math.Sqrt(2 * 600 * (3600 - 660))
	x := (1 - 600/popt) * (1 - (60+600+popt/2)/3600)
	wantWaste := 1 - x
	if !almostEqual(res.Waste, wantWaste, 1e-9) {
		t.Errorf("waste = %v, want %v", res.Waste, wantWaste)
	}
	if !almostEqual(res.TFinal, Week/x, 1e-9) {
		t.Errorf("TFinal = %v, want %v", res.TFinal, Week/x)
	}
	if !almostEqual(res.PeriodG, popt, 1e-9) {
		t.Errorf("PeriodG = %v, want %v", res.PeriodG, popt)
	}
}

// PurePeriodicCkpt waste is independent of alpha (Figure 7a discussion).
func TestPureWasteIndependentOfAlpha(t *testing.T) {
	ref := Waste(PurePeriodicCkpt, Fig7Params(2*Hour, 0))
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.8, 1} {
		w := Waste(PurePeriodicCkpt, Fig7Params(2*Hour, alpha))
		if !almostEqual(w, ref, 1e-12) {
			t.Errorf("alpha=%v: waste %v != %v", alpha, w, ref)
		}
	}
}

// Hand-computed ABFT&PeriodicCkpt at alpha=1, mu=4h (library-only epoch):
// T_G = CLbar/(1-(D+R+CLbar/2)/mu), T_L = (phi*T0+CL)/(1-(D+RLbar+Recons)/mu).
func TestCompositeHandComputedAlphaOne(t *testing.T) {
	p := Fig7Params(4*Hour, 1)
	res := Evaluate(AbftPeriodicCkpt, p, Options{})
	mu := 4 * Hour
	tg := 120 / (1 - (60+600+60)/mu)
	tl := (1.03*Week + 480) / (1 - (60+120+2)/mu)
	if !almostEqual(res.TFinal, tg+tl, 1e-9) {
		t.Errorf("TFinal = %v, want %v", res.TFinal, tg+tl)
	}
	if !res.ABFTActive {
		t.Error("ABFT should be active")
	}
	// Waste approaches the ABFT slowdown overhead (~3%) plus failure cost.
	if res.Waste < 0.03 || res.Waste > 0.06 {
		t.Errorf("waste at alpha=1 = %v, want ~3-6%%", res.Waste)
	}
}

// Figure 7e discussion: at alpha -> 1, composite waste tends to the phi
// overhead; at alpha -> 0, composite behaves like PurePeriodicCkpt.
func TestCompositeLimits(t *testing.T) {
	pZero := Fig7Params(2*Hour, 0)
	wComposite := Waste(AbftPeriodicCkpt, pZero)
	wPure := Waste(PurePeriodicCkpt, pZero)
	if math.Abs(wComposite-wPure) > 0.01 {
		t.Errorf("alpha=0: composite %v vs pure %v", wComposite, wPure)
	}
}

// BiPeriodicCkpt with alpha ~ 1 behaves like PurePeriodicCkpt with a 20%
// cheaper checkpoint (Figure 7c discussion).
func TestBiPeriodicAlphaOneLikeCheaperPure(t *testing.T) {
	p := Fig7Params(2*Hour, 1)
	biRes := Evaluate(BiPeriodicCkpt, p, Options{})
	cheaper := p
	cheaper.Alpha = 0
	cheaper.C = p.CL() // 0.8C
	pureRes := Evaluate(PurePeriodicCkpt, cheaper, Options{})
	if math.Abs(biRes.Waste-pureRes.Waste) > 0.01 {
		t.Errorf("bi(alpha=1) %v vs pure(0.8C) %v", biRes.Waste, pureRes.Waste)
	}
}

// Bi uses a longer period in the general phase than in the library phase?
// No: CL < C so P_BPC,L = sqrt(2*CL*(mu-D-R)) < P_G. Check Eq. (14).
func TestBiPeriodicLibraryPeriod(t *testing.T) {
	p := Fig7Params(2*Hour, 0.5)
	res := Evaluate(BiPeriodicCkpt, p, Options{})
	wantL := math.Sqrt(2 * 480 * (2*Hour - 660))
	if !almostEqual(res.PeriodL, wantL, 1e-9) {
		t.Errorf("PeriodL = %v, want %v", res.PeriodL, wantL)
	}
	if res.PeriodL >= res.PeriodG {
		t.Errorf("library period %v should be below general period %v", res.PeriodL, res.PeriodG)
	}
}

// At mid alpha and low MTBF the composite beats both periodic protocols
// (Figure 7 discussion: at alpha=0.5, benefits already visible).
func TestCompositeBeatsPeriodicAtLowMTBF(t *testing.T) {
	p := Fig7Params(Hour, 0.8)
	wPure := Waste(PurePeriodicCkpt, p)
	wBi := Waste(BiPeriodicCkpt, p)
	wComposite := Waste(AbftPeriodicCkpt, p)
	if !(wComposite < wBi && wBi <= wPure+1e-9) {
		t.Errorf("expected composite < bi <= pure, got %v, %v, %v", wComposite, wBi, wPure)
	}
}

// Waste is monotonically non-increasing in MTBF for every protocol.
func TestWasteMonotoneInMTBF(t *testing.T) {
	for _, proto := range Protocols {
		prev := 1.1
		for mu := 30 * Minute; mu <= 10*Hour; mu += 10 * Minute {
			w := Waste(proto, Fig7Params(mu, 0.6))
			if w > prev+1e-9 {
				t.Errorf("%v: waste increased from %v to %v at mu=%v", proto, prev, w, mu)
			}
			prev = w
		}
	}
}

// Waste is always in [0,1] and infeasible scenarios report waste 1.
func TestWasteBounds(t *testing.T) {
	f := func(muRaw, alphaRaw uint16) bool {
		mu := 1 + float64(muRaw) // can be far below feasibility
		alpha := float64(alphaRaw%101) / 100
		p := Fig7Params(mu, alpha)
		for _, proto := range Protocols {
			res := Evaluate(proto, p, Options{})
			if res.Waste < 0 || res.Waste > 1 || math.IsNaN(res.Waste) {
				return false
			}
			if !res.Feasible && res.Waste != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInfeasibleScenario(t *testing.T) {
	// MTBF below D+R: nothing can recover.
	p := Fig7Params(5*Minute, 0.5)
	for _, proto := range Protocols {
		res := Evaluate(proto, p, Options{})
		if res.Feasible {
			t.Errorf("%v: expected infeasible at mu=5min with C=R=10min", proto)
		}
		if !math.IsInf(res.TFinal, 1) {
			t.Errorf("%v: TFinal = %v, want +Inf", proto, res.TFinal)
		}
	}
}

// The safeguard disables ABFT when the library call is shorter than the
// optimal checkpoint interval, falling back to BiPeriodic-style protection.
func TestSafeguard(t *testing.T) {
	p := Fig7Params(2*Hour, 0.5)
	p.T0 = 10 * Minute // tiny epoch: library call far below P_opt
	on := Evaluate(AbftPeriodicCkpt, p, Options{Safeguard: true})
	off := Evaluate(AbftPeriodicCkpt, p, Options{})
	if on.ABFTActive {
		t.Error("safeguard should have vetoed ABFT for a tiny library call")
	}
	if !off.ABFTActive {
		t.Error("without safeguard ABFT should be active")
	}
	// For a week-long epoch the safeguard must not trigger.
	big := Evaluate(AbftPeriodicCkpt, Fig7Params(2*Hour, 0.5), Options{Safeguard: true})
	if !big.ABFTActive {
		t.Error("safeguard should not veto a week-long library phase")
	}
}

func TestFixedPeriodOverride(t *testing.T) {
	p := Fig7Params(2*Hour, 0)
	opt := Evaluate(PurePeriodicCkpt, p, Options{})
	worse := Evaluate(PurePeriodicCkpt, p, Options{FixedPeriodG: opt.PeriodG * 3})
	if worse.Waste < opt.Waste {
		t.Errorf("suboptimal period yielded lower waste: %v < %v", worse.Waste, opt.Waste)
	}
	if worse.PeriodG != opt.PeriodG*3 {
		t.Errorf("fixed period not honored: %v", worse.PeriodG)
	}
}

func TestExpectedFaults(t *testing.T) {
	p := Fig7Params(2*Hour, 0.5)
	res := Evaluate(PurePeriodicCkpt, p, Options{})
	if !almostEqual(res.ExpectedFaults, res.TFinal/p.Mu, 1e-12) {
		t.Errorf("ExpectedFaults = %v, want TFinal/mu = %v", res.ExpectedFaults, res.TFinal/p.Mu)
	}
}

func TestEvaluateAllCoversProtocols(t *testing.T) {
	all := EvaluateAll(Fig7Params(2*Hour, 0.5), Options{})
	if len(all) != 3 {
		t.Fatalf("got %d results", len(all))
	}
	for _, proto := range Protocols {
		if _, ok := all[proto]; !ok {
			t.Errorf("missing protocol %v", proto)
		}
	}
}

func TestProtocolString(t *testing.T) {
	if PurePeriodicCkpt.String() != "PurePeriodicCkpt" ||
		BiPeriodicCkpt.String() != "BiPeriodicCkpt" ||
		AbftPeriodicCkpt.String() != "ABFT&PeriodicCkpt" {
		t.Error("unexpected protocol names")
	}
	if Protocol(99).String() == "" {
		t.Error("unknown protocol should still stringify")
	}
}

func TestEvaluatePanicsOnInvalidParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid params")
		}
	}()
	Evaluate(PurePeriodicCkpt, Params{T0: 1, Mu: -1, Phi: 1}, Options{})
}
