package regress

import (
	"math"
)

// ResidualFunc maps a parameter vector to a residual vector. For the
// paper's objective Σ(ŷ−y)²/y, each residual is (ŷᵢ−yᵢ)/√yᵢ so that the
// sum of squared residuals equals the sum of relative squared errors.
type ResidualFunc func(params []float64) []float64

// LMOptions configures the Levenberg–Marquardt refinement.
type LMOptions struct {
	MaxIter  int     // maximum outer iterations (default 100)
	Tol      float64 // relative improvement convergence threshold (default 1e-12)
	Lambda0  float64 // initial damping (default 1e-3)
	FDStep   float64 // finite-difference step for the Jacobian (default 1e-6)
	LambdaUp float64 // damping multiplier on failure (default 10)
	LambdaDn float64 // damping divisor on success (default 10)
}

func (o LMOptions) withDefaults() LMOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.Lambda0 <= 0 {
		o.Lambda0 = 1e-3
	}
	if o.FDStep <= 0 {
		o.FDStep = 1e-6
	}
	if o.LambdaUp <= 1 {
		o.LambdaUp = 10
	}
	if o.LambdaDn <= 1 {
		o.LambdaDn = 10
	}
	return o
}

func sumSq(r []float64) float64 {
	var s float64
	for _, v := range r {
		s += v * v
	}
	return s
}

// LevenbergMarquardt minimizes ||r(p)||² starting from x0, clamped inside
// bounds, using a numerically differentiated Jacobian. It is used to
// polish the Nelder–Mead solution of the mechanistic-empirical fit; on
// its own it is sensitive to the starting point because the model is
// non-convex in the power-law exponents.
func LevenbergMarquardt(resid ResidualFunc, x0 []float64, bounds Bounds, opts LMOptions) Result {
	opts = opts.withDefaults()
	n := len(x0)
	p := bounds.Clamp(x0)
	r := resid(p)
	m := len(r)
	cost := sumSq(r)
	lambda := opts.Lambda0
	iters := 0

	jac := make([][]float64, m)
	for i := range jac {
		jac[i] = make([]float64, n)
	}

	for ; iters < opts.MaxIter; iters++ {
		// Finite-difference Jacobian, column by column.
		for j := 0; j < n; j++ {
			h := opts.FDStep * math.Max(math.Abs(p[j]), 1e-3)
			pj := append([]float64(nil), p...)
			pj[j] += h
			pj = bounds.Clamp(pj)
			dh := pj[j] - p[j]
			if dh == 0 {
				// At the upper bound: step down instead.
				pj[j] = p[j] - h
				pj = bounds.Clamp(pj)
				dh = pj[j] - p[j]
				if dh == 0 {
					for i := 0; i < m; i++ {
						jac[i][j] = 0
					}
					continue
				}
			}
			rj := resid(pj)
			for i := 0; i < m; i++ {
				jac[i][j] = (rj[i] - r[i]) / dh
			}
		}

		// Normal equations (JᵀJ + λ·diag(JᵀJ))δ = -Jᵀr.
		jtj := make([][]float64, n)
		for i := range jtj {
			jtj[i] = make([]float64, n)
		}
		jtr := make([]float64, n)
		for i := 0; i < m; i++ {
			for a := 0; a < n; a++ {
				jtr[a] += jac[i][a] * r[i]
				for b := a; b < n; b++ {
					jtj[a][b] += jac[i][a] * jac[i][b]
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < a; b++ {
				jtj[a][b] = jtj[b][a]
			}
		}

		improved := false
		for attempt := 0; attempt < 10; attempt++ {
			A := make([][]float64, n)
			for a := range A {
				A[a] = append([]float64(nil), jtj[a]...)
				damp := lambda * jtj[a][a]
				if damp == 0 {
					damp = lambda
				}
				A[a][a] += damp
			}
			rhs := make([]float64, n)
			for a := range rhs {
				rhs[a] = -jtr[a]
			}
			delta, err := SolveCholesky(A, rhs)
			if err != nil {
				lambda *= opts.LambdaUp
				continue
			}
			cand := make([]float64, n)
			for a := range cand {
				cand[a] = p[a] + delta[a]
			}
			cand = bounds.Clamp(cand)
			rc := resid(cand)
			cc := sumSq(rc)
			if cc < cost {
				rel := (cost - cc) / (cost + 1e-300)
				p, r, cost = cand, rc, cc
				lambda /= opts.LambdaDn
				if lambda < 1e-12 {
					lambda = 1e-12
				}
				improved = true
				if rel < opts.Tol {
					return Result{Params: p, Value: cost, Iters: iters + 1}
				}
				break
			}
			lambda *= opts.LambdaUp
			if lambda > 1e12 {
				return Result{Params: p, Value: cost, Iters: iters + 1}
			}
		}
		if !improved {
			break
		}
	}
	return Result{Params: p, Value: cost, Iters: iters}
}

// MinimizeRelSq minimizes the paper's objective — the sum of relative
// squared errors between model predictions and measured values — over the
// model's free parameters. It combines multi-start Nelder–Mead with a
// Levenberg–Marquardt polish.
//
// predict writes the predictions for params into out, which is aligned
// with measured. The multi-starts call it concurrently, each with its
// own out, so it must not write anywhere else.
func MinimizeRelSq(predict func(params, out []float64), measured []float64,
	x0 []float64, bounds Bounds, opts MultiStartOptions) Result {

	den := make([]float64, len(measured))
	for i, y := range measured {
		den[i] = math.Sqrt(math.Abs(y))
		if den[i] == 0 {
			den[i] = 1
		}
	}
	residInto := func(params, pred, out []float64) []float64 {
		predict(params, pred)
		for i := range pred {
			out[i] = (pred[i] - measured[i]) / den[i]
		}
		return out
	}
	newObjective := func() Objective {
		pred := make([]float64, len(measured))
		resid := make([]float64, len(measured))
		return func(params []float64) float64 { return sumSq(residInto(params, pred, resid)) }
	}
	// LevenbergMarquardt holds on to the residual vectors it is handed,
	// so its residual function returns fresh ones.
	resid := func(params []float64) []float64 {
		return residInto(params, make([]float64, len(measured)), make([]float64, len(measured)))
	}

	best := MultiStartNelderMead(newObjective, x0, bounds, opts)
	polished := LevenbergMarquardt(resid, best.Params, bounds, LMOptions{})
	if polished.Value < best.Value {
		polished.Iters += best.Iters
		return polished
	}
	return best
}
