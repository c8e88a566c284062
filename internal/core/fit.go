package core

import (
	"fmt"

	"repro/internal/regress"
	"repro/internal/uarch"
)

// FitOptions tunes the regression (sensible defaults everywhere).
type FitOptions struct {
	// Starts is the number of random multi-start restarts (default 12).
	Starts int
	// Seed drives the random restarts (default 1).
	Seed uint64
	// MaxIter bounds each Nelder–Mead run (default 4000).
	MaxIter int

	// Ablation switches (all default false = the paper's model). These
	// exist to quantify the design choices Section 3 argues for.
	AdditiveBranch bool // Eq. 2 with additive instead of multiplicative factors
	ConstantMLP    bool // Eq. 3 replaced by a single fitted constant
	UnscaledStall  bool // Eq. 4 without the miss-time scaling factor
	NoWindowCap    bool // Eq. 2 without the min(128, ·) window cap
}

func (o FitOptions) withDefaults() FitOptions {
	if o.Starts <= 0 {
		o.Starts = 12
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 4000
	}
	return o
}

// fitBounds are the parameter box constraints. Scales are positive;
// power-law exponents live in modest ranges (the paper's power laws are
// sublinear); factor coefficients are non-negative.
func fitBounds() regress.Bounds {
	return regress.Bounds{
		//           b1    b2   b3  b4   b5   b6  b7   b8  b9  b10
		Lo: []float64{1e-4, 0.0, 0, 0, 0.05, 0, 0, 0, 0, 0},
		Hi: []float64{50, 1.5, 20, 300, 80, 1.0, 1.0, 2.0, 20, 300},
	}
}

// defaultStart is a physically plausible initial parameter vector:
// branch resolution around b1·interval^0.5 ≈ 10 cycles, MLP a few, a
// small baseline stall.
func defaultStart() []float64 {
	return []float64{1, 0.5, 1, 10, 4, 0.2, 0.05, 0.1, 1, 10}
}

// Fit infers a mechanistic-empirical model for the machine from the
// observations, minimizing the sum of relative squared CPI errors
// (the paper's SPSS setup, Section 4). At least as many observations as
// parameters are required.
func Fit(machine uarch.ModelParams, obs []Observation, opts FitOptions) (*Model, error) {
	opts = opts.withDefaults()
	if len(obs) < 10 {
		return nil, fmt.Errorf("core: need at least 10 observations to fit 10 parameters, have %d", len(obs))
	}
	if machine.DispatchWidth <= 0 {
		return nil, fmt.Errorf("core: invalid machine parameters (dispatch width %d)", machine.DispatchWidth)
	}
	for _, o := range obs {
		if o.MeasuredCPI <= 0 {
			return nil, fmt.Errorf("core: observation %q has non-positive CPI %v", o.Name, o.MeasuredCPI)
		}
	}

	measured := make([]float64, len(obs))
	for i, o := range obs {
		measured[i] = o.MeasuredCPI
	}

	eval := modelEvaluator(machine, obs, opts)
	res := regress.MinimizeRelSq(eval, measured, defaultStart(), fitBounds(),
		regress.MultiStartOptions{
			Starts: opts.Starts,
			Seed:   opts.Seed,
			NM:     regress.NMOptions{MaxIter: opts.MaxIter},
		})

	m := &Model{Machine: machine, P: paramsFromSlice(res.Params)}
	m.ablation = ablationFrom(opts)
	return m, nil
}

// modelEvaluator returns a function writing the per-observation CPI
// predictions for a raw parameter vector into out, honouring the
// ablation switches. It touches nothing but out, so concurrent calls
// with distinct outs are safe.
func modelEvaluator(machine uarch.ModelParams, obs []Observation, opts FitOptions) func(params, out []float64) {
	abl := ablationFrom(opts)
	return func(params, out []float64) {
		m := Model{Machine: machine, P: paramsFromSlice(params), ablation: abl}
		for i, o := range obs {
			out[i] = m.PredictCPI(o.Feat)
		}
	}
}

// ablation mirrors the FitOptions switches inside the model so that a
// model fitted with an ablated structure also predicts with it.
type ablation struct {
	additiveBranch bool
	constantMLP    bool
	unscaledStall  bool
	noWindowCap    bool
}

func ablationFrom(o FitOptions) ablation {
	return ablation{
		additiveBranch: o.AdditiveBranch,
		constantMLP:    o.ConstantMLP,
		unscaledStall:  o.UnscaledStall,
		noWindowCap:    o.NoWindowCap,
	}
}
