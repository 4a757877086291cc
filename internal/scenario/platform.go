package scenario

import (
	"fmt"
	"sort"

	"abftckpt/internal/model"
)

// Platform is a named fixed-scale platform: a model.Params template whose
// MTBF (Mu) and LIBRARY fraction (Alpha) are filled in per cell by the axes
// of the spec using it. All durations are seconds.
type Platform struct {
	// Name addresses the platform from scenario files.
	Name string
	// Desc is the human description used in default artifact titles.
	Desc string
	// Params is the template; Mu and Alpha are overwritten per cell.
	Params model.Params
}

// ScalingPlatform is a named weak-scaling study: baseline values at
// BaseNodes extrapolated over a node axis (see model.WeakScaling).
type ScalingPlatform struct {
	Name    string
	Desc    string
	Scaling model.WeakScaling
}

// The built-in platform catalogue: the paper's platform points plus
// exascale extrapolations. Names are stable API; scenario files reference
// them via the "platform" fields.
var (
	fixedPlatforms = map[string]Platform{
		// The Figure 7 platform: one-week epoch, parallel file system
		// checkpoints, rho=0.8, phi=1.03.
		"paper-fig7": {
			Name: "paper-fig7",
			Desc: "T0=1w, C=R=10min, D=1min, rho=0.8, phi=1.03",
			Params: model.Params{
				T0:     model.Week,
				C:      10 * model.Minute,
				R:      10 * model.Minute,
				D:      1 * model.Minute,
				Rho:    0.8,
				Phi:    1.03,
				Recons: 2 * model.Second,
			},
		},
		// Exascale extrapolation: checkpoints land on node-local NVM burst
		// buffers (C=R=30s), failures are repaired by hot spares (D=30s),
		// the ABFT slowdown grows with the deeper memory hierarchy.
		"exascale-nvm": {
			Name: "exascale-nvm",
			Desc: "T0=1w, C=R=30s (NVM), D=30s, rho=0.8, phi=1.05",
			Params: model.Params{
				T0:     model.Week,
				C:      30 * model.Second,
				R:      30 * model.Second,
				D:      30 * model.Second,
				Rho:    0.8,
				Phi:    1.05,
				Recons: 2 * model.Second,
			},
		},
	}

	scalingPlatforms = map[string]ScalingPlatform{
		// Figure 8 with scalable-storage (constant-cost) checkpoints: the
		// variant under which the published curve shapes stay feasible at
		// 10^6 nodes (DESIGN.md §5-S3).
		"paper-fig8-const-ckpt": {
			Name:    "paper-fig8-const-ckpt",
			Desc:    "Fig. 8 scenario, C const",
			Scaling: model.Fig8Scenario(model.ScaleConstant),
		},
		// Figure 8 with the paper-stated memory-proportional checkpoints.
		"paper-fig8-linear-ckpt": {
			Name:    "paper-fig8-linear-ckpt",
			Desc:    "Fig. 8 scenario, C ~ x",
			Scaling: model.Fig8Scenario(model.ScaleLinear),
		},
		// Figure 9: O(n^2) GENERAL phase (alpha grows with the node count),
		// memory-proportional checkpoints.
		"paper-fig9-linear-ckpt": {
			Name:    "paper-fig9-linear-ckpt",
			Desc:    "Fig. 9 scenario, C ~ x",
			Scaling: model.Fig9Scenario(model.ScaleLinear),
		},
		// Figure 10: the Figure 9 phase mix with constant checkpoint cost
		// (buddy checkpointing, C = R = 60 s).
		"paper-fig10": {
			Name:    "paper-fig10",
			Desc:    "Fig. 10 scenario, C = R = 60s",
			Scaling: model.Fig10Scenario(),
		},
		// Exascale extrapolation: the Figure 10 phase mix from a 100k-node
		// baseline with a shorter per-node MTBF budget (6h platform MTBF at
		// base) and 10-second NVM checkpoints.
		"exascale-projected": {
			Name: "exascale-projected",
			Desc: "exascale projection, 100k base, MTBF 6h, C = R = 10s (NVM)",
			Scaling: func() model.WeakScaling {
				w := model.Fig10Scenario()
				w.BaseNodes = 100_000
				w.MTBFAtBase = 6 * model.Hour
				w.CkptAtBase = 10 * model.Second
				w.Downtime = 30 * model.Second
				return w
			}(),
		},
	}
)

// LookupPlatform returns the named fixed platform.
func LookupPlatform(name string) (Platform, error) {
	if p, ok := fixedPlatforms[name]; ok {
		return p, nil
	}
	return Platform{}, fmt.Errorf("scenario: unknown platform %q (have %v)", name, PlatformNames())
}

// LookupScalingPlatform returns the named weak-scaling platform.
func LookupScalingPlatform(name string) (ScalingPlatform, error) {
	if p, ok := scalingPlatforms[name]; ok {
		return p, nil
	}
	return ScalingPlatform{}, fmt.Errorf("scenario: unknown scaling platform %q (have %v)", name, ScalingPlatformNames())
}

// PlatformNames lists the fixed platforms in sorted order.
func PlatformNames() []string {
	names := make([]string, 0, len(fixedPlatforms))
	for n := range fixedPlatforms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ScalingPlatformNames lists the weak-scaling platforms in sorted order.
func ScalingPlatformNames() []string {
	names := make([]string, 0, len(scalingPlatforms))
	for n := range scalingPlatforms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParamsOverride tweaks a fixed platform field-by-field; nil pointers keep
// the catalogue value. All durations are seconds.
type ParamsOverride struct {
	T0     *float64 `json:"t0,omitempty"`
	C      *float64 `json:"c,omitempty"`
	R      *float64 `json:"r,omitempty"`
	D      *float64 `json:"d,omitempty"`
	Rho    *float64 `json:"rho,omitempty"`
	Phi    *float64 `json:"phi,omitempty"`
	Recons *float64 `json:"recons,omitempty"`
	RLbar  *float64 `json:"rlbar,omitempty"`
}

// apply returns the template with the overrides applied.
func (o *ParamsOverride) apply(p model.Params) model.Params {
	if o == nil {
		return p
	}
	p.T0 = valueOr(o.T0, p.T0)
	p.C = valueOr(o.C, p.C)
	p.R = valueOr(o.R, p.R)
	p.D = valueOr(o.D, p.D)
	p.Rho = valueOr(o.Rho, p.Rho)
	p.Phi = valueOr(o.Phi, p.Phi)
	p.Recons = valueOr(o.Recons, p.Recons)
	p.RLbar = valueOr(o.RLbar, p.RLbar)
	return p
}

// ScalingOverride tweaks a weak-scaling platform field-by-field; nil
// pointers keep the catalogue value. Durations are seconds; scaling laws are
// named "constant", "sqrt", "linear" or "inverse".
type ScalingOverride struct {
	BaseNodes      *float64 `json:"base_nodes,omitempty"`
	EpochAtBase    *float64 `json:"epoch_at_base,omitempty"`
	AlphaAtBase    *float64 `json:"alpha_at_base,omitempty"`
	MTBFAtBase     *float64 `json:"mtbf_at_base,omitempty"`
	CkptAtBase     *float64 `json:"ckpt_at_base,omitempty"`
	CkptScaling    *string  `json:"ckpt_scaling,omitempty"`
	GeneralScaling *string  `json:"general_scaling,omitempty"`
	LibraryScaling *string  `json:"library_scaling,omitempty"`
	Epochs         *int     `json:"epochs,omitempty"`
	Downtime       *float64 `json:"downtime,omitempty"`
	Rho            *float64 `json:"rho,omitempty"`
	Phi            *float64 `json:"phi,omitempty"`
	Recons         *float64 `json:"recons,omitempty"`
}

// apply returns the study with the overrides applied.
func (o *ScalingOverride) apply(w model.WeakScaling) (model.WeakScaling, error) {
	if o == nil {
		return w, nil
	}
	w.BaseNodes = valueOr(o.BaseNodes, w.BaseNodes)
	w.EpochAtBase = valueOr(o.EpochAtBase, w.EpochAtBase)
	w.AlphaAtBase = valueOr(o.AlphaAtBase, w.AlphaAtBase)
	w.MTBFAtBase = valueOr(o.MTBFAtBase, w.MTBFAtBase)
	w.CkptAtBase = valueOr(o.CkptAtBase, w.CkptAtBase)
	w.Epochs = valueOr(o.Epochs, w.Epochs)
	w.Downtime = valueOr(o.Downtime, w.Downtime)
	w.Rho = valueOr(o.Rho, w.Rho)
	w.Phi = valueOr(o.Phi, w.Phi)
	w.Recons = valueOr(o.Recons, w.Recons)
	setLaw := func(dst *model.ScalingLaw, src *string) error {
		if src == nil {
			return nil
		}
		law, err := model.ParseScalingLaw(*src)
		if err != nil {
			return err
		}
		*dst = law
		return nil
	}
	if err := setLaw(&w.CkptScaling, o.CkptScaling); err != nil {
		return w, err
	}
	if err := setLaw(&w.GeneralScaling, o.GeneralScaling); err != nil {
		return w, err
	}
	if err := setLaw(&w.LibraryScaling, o.LibraryScaling); err != nil {
		return w, err
	}
	return w, nil
}
