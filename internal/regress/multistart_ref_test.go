package regress

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/rng"
)

// refNelderMead and refMultiStartNelderMead are the sequential,
// allocating minimizers the buffer-reusing NelderMead and the concurrent
// MultiStartNelderMead replaced, kept verbatim (renamed) as their
// reference: the two drivers must agree bit for bit on Params, Value
// and Iters.
// refNelderMead minimizes f starting from x0 inside bounds using the standard
// simplex method (reflection/expansion/contraction/shrink with the usual
// coefficients 1, 2, 0.5, 0.5).
func refNelderMead(f Objective, x0 []float64, bounds Bounds, opts NMOptions) Result {
	opts = opts.withDefaults()
	n := len(x0)
	if n == 0 {
		panic("regress: NelderMead needs at least one parameter")
	}
	eval := func(p []float64) float64 {
		v := f(bounds.Clamp(p))
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Build the initial simplex: x0 plus n perturbed vertices.
	simplex := make([][]float64, n+1)
	vals := make([]float64, n+1)
	simplex[0] = bounds.Clamp(x0)
	vals[0] = eval(simplex[0])
	for i := 0; i < n; i++ {
		v := append([]float64(nil), simplex[0]...)
		step := opts.Scale * math.Abs(v[i])
		if step == 0 {
			step = opts.Scale
		}
		v[i] += step
		simplex[i+1] = bounds.Clamp(v)
		vals[i+1] = eval(simplex[i+1])
	}

	order := make([]int, n+1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
		best, worst, second := order[0], order[n], order[n-1]

		if vals[worst]-vals[best] < opts.Tol*(math.Abs(vals[best])+opts.Tol) {
			// Values have converged; make sure the simplex itself has too.
			// Two vertices symmetric around a minimum can tie in value while
			// straddling it (common in low dimensions), so shrink instead of
			// returning while the simplex is still wide.
			var diam float64
			for _, v := range simplex[1:] {
				for j := range v {
					d := math.Abs(v[j] - simplex[0][j])
					if d > diam {
						diam = d
					}
				}
			}
			scale := 1.0
			for j := range simplex[best] {
				scale = math.Max(scale, math.Abs(simplex[best][j]))
			}
			if diam < 1e-8*scale {
				return Result{Params: simplex[best], Value: vals[best], Iters: iter}
			}
			for _, idx := range order[1:] {
				for j := range simplex[idx] {
					simplex[idx][j] = simplex[best][j] + 0.5*(simplex[idx][j]-simplex[best][j])
				}
				simplex[idx] = bounds.Clamp(simplex[idx])
				vals[idx] = eval(simplex[idx])
			}
			continue
		}

		// Centroid of all vertices except the worst.
		centroid := make([]float64, n)
		for _, idx := range order[:n] {
			for j := range centroid {
				centroid[j] += simplex[idx][j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(n)
		}

		combine := func(alpha float64) ([]float64, float64) {
			p := make([]float64, n)
			for j := range p {
				p[j] = centroid[j] + alpha*(centroid[j]-simplex[worst][j])
			}
			p = bounds.Clamp(p)
			return p, eval(p)
		}

		refl, fRefl := combine(1)
		switch {
		case fRefl < vals[best]:
			// Try expanding further in the same direction.
			exp, fExp := combine(2)
			if fExp < fRefl {
				simplex[worst], vals[worst] = exp, fExp
			} else {
				simplex[worst], vals[worst] = refl, fRefl
			}
		case fRefl < vals[second]:
			simplex[worst], vals[worst] = refl, fRefl
		default:
			// Contract toward the centroid.
			var con []float64
			var fCon float64
			if fRefl < vals[worst] {
				con, fCon = combine(0.5) // outside contraction
			} else {
				con, fCon = combine(-0.5) // inside contraction
			}
			if fCon < math.Min(fRefl, vals[worst]) {
				simplex[worst], vals[worst] = con, fCon
			} else {
				// Shrink everything toward the best vertex.
				for _, idx := range order[1:] {
					for j := range simplex[idx] {
						simplex[idx][j] = simplex[best][j] + 0.5*(simplex[idx][j]-simplex[best][j])
					}
					simplex[idx] = bounds.Clamp(simplex[idx])
					vals[idx] = eval(simplex[idx])
				}
			}
		}
	}

	bestIdx := 0
	for i := range vals {
		if vals[i] < vals[bestIdx] {
			bestIdx = i
		}
	}
	return Result{Params: simplex[bestIdx], Value: vals[bestIdx], Iters: opts.MaxIter}
}

// refMultiStartNelderMead runs Nelder–Mead from x0 and from opts.Starts
// additional points sampled log-uniformly (when Lo>0) or uniformly inside
// the bounds, returning the best result. This is how the non-convex
// 10-parameter fit of the paper's model avoids poor local minima.
func refMultiStartNelderMead(f Objective, x0 []float64, bounds Bounds, opts MultiStartOptions) Result {
	opts = opts.withDefaults()
	if len(bounds.Lo) != len(x0) || len(bounds.Hi) != len(x0) {
		panic(fmt.Sprintf("regress: MultiStartNelderMead bounds dims (%d,%d) do not match x0 (%d)",
			len(bounds.Lo), len(bounds.Hi), len(x0)))
	}
	best := refNelderMead(f, x0, bounds, opts.NM)
	r := rng.New(opts.Seed)
	for s := 0; s < opts.Starts; s++ {
		start := make([]float64, len(x0))
		for i := range start {
			lo, hi := bounds.Lo[i], bounds.Hi[i]
			if lo > 0 && hi > lo {
				// Sample log-uniformly across the positive range.
				start[i] = math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
			} else {
				start[i] = lo + r.Float64()*(hi-lo)
			}
		}
		res := refNelderMead(f, start, bounds, opts.NM)
		if res.Value < best.Value {
			best = res
		}
	}
	return best
}

// powerLawFit is a 10-parameter relative-squared-error objective shaped
// like the paper's model (power laws times linear factors, plus an
// additive stall term), over 40 synthetic observations.
func powerLawFit() (Objective, []float64, Bounds) {
	truth := []float64{1.2, 0.5, 1, 20, 6, 0.25, 0.05, 0.08, 1.5, 30}
	predict := func(p, x []float64) float64 {
		return p[0]*math.Pow(x[0], p[1])*(1+p[2]*x[1])*(1+p[3]*x[2]) +
			p[4]*math.Pow(x[3], p[5])*math.Pow(x[4], p[6]) +
			p[7]*(1+p[8]*x[1])*(1+p[9]*x[2])
	}
	r := rng.New(17)
	xs := make([][]float64, 40)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = []float64{1 + 127*r.Float64(), 0.35 * r.Float64(), 0.03 * r.Float64(),
			1e-4 + 0.004*r.Float64(), 1e-5 + 0.001*r.Float64()}
		ys[i] = predict(truth, xs[i]) * (1 + 0.05*(2*r.Float64()-1))
	}
	f := func(p []float64) float64 {
		var s float64
		for i, x := range xs {
			d := predict(p, x) - ys[i]
			s += d * d / ys[i]
		}
		return s
	}
	b := Bounds{
		Lo: []float64{1e-4, 0.0, 0, 0, 0.05, 0, 0, 0, 0, 0},
		Hi: []float64{50, 1.5, 20, 300, 80, 1.0, 1.0, 2.0, 20, 300},
	}
	return f, []float64{1, 0.5, 1, 10, 4, 0.2, 0.05, 0.1, 1, 10}, b
}

func sameResult(a, b Result) error {
	if len(a.Params) != len(b.Params) {
		return fmt.Errorf("params %v vs %v", a.Params, b.Params)
	}
	for i := range a.Params {
		if math.Float64bits(a.Params[i]) != math.Float64bits(b.Params[i]) {
			return fmt.Errorf("param %d: %v vs %v", i, a.Params[i], b.Params[i])
		}
	}
	if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
		return fmt.Errorf("value %v vs %v", a.Value, b.Value)
	}
	if a.Iters != b.Iters {
		return fmt.Errorf("iters %d vs %d", a.Iters, b.Iters)
	}
	return nil
}

// TestMultiStartMatchesSequential requires the concurrent driver over
// the buffer-reusing NelderMead to return exactly what the sequential
// reference returns, at one, two and eight Ps.
func TestMultiStartMatchesSequential(t *testing.T) {
	twoWell := func(p []float64) float64 {
		x := p[0]
		return math.Min((x-1)*(x-1), (x-4)*(x-4)+1)
	}
	// Zero on the whole square [1,3]²: runs end on exact ties at
	// different points, so which one wins shows the reduction order,
	// and vertex ties show the sort's tie-breaking.
	flat := func(p []float64) float64 {
		var s float64
		for _, x := range p {
			d := math.Max(0, math.Abs(x-2)-1)
			s += d * d
		}
		return s
	}
	power, powerX0, powerBounds := powerLawFit()
	cases := []struct {
		name   string
		f      Objective
		x0     []float64
		bounds Bounds
		opts   MultiStartOptions
	}{
		{"quadratic", quadratic([]float64{2, 2, 2}), []float64{1, 1, 1},
			Bounds{Lo: []float64{0, 0, 0}, Hi: []float64{5, 5, 5}}, MultiStartOptions{Starts: 4, Seed: 9}},
		{"two-well", twoWell, []float64{5},
			Bounds{Lo: []float64{0.1}, Hi: []float64{10}}, MultiStartOptions{Starts: 16, Seed: 3}},
		{"flat-bottom", flat, []float64{6, 6},
			Bounds{Lo: []float64{0, 0}, Hi: []float64{10, 10}}, MultiStartOptions{Starts: 8, Seed: 4}},
		// Cut short, x0's run stays outside the square while random
		// starts drawn inside it tie at zero where they began: the
		// winner shows the order the starts were drawn in.
		{"flat-bottom-short", flat, []float64{4, 4},
			Bounds{Lo: []float64{0, 0}, Hi: []float64{4, 4}}, MultiStartOptions{Starts: 8, Seed: 4, NM: NMOptions{MaxIter: 2}}},
		{"power-law", power, powerX0, powerBounds,
			MultiStartOptions{Starts: 6, Seed: 2, NM: NMOptions{MaxIter: 1500}}},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range cases {
		want := refMultiStartNelderMead(c.f, c.x0, c.bounds, c.opts)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := MultiStartNelderMead(func() Objective { return c.f }, c.x0, c.bounds, c.opts)
			if err := sameResult(got, want); err != nil {
				t.Errorf("%s at GOMAXPROCS=%d: %v", c.name, procs, err)
			}
		}
	}
}

func TestMultiStartPanicReachesCaller(t *testing.T) {
	defer func() {
		if p := recover(); p != "boom" {
			t.Errorf("recovered %v, want the objective's panic", p)
		}
	}()
	MultiStartNelderMead(func() Objective {
		return func([]float64) float64 { panic("boom") }
	}, []float64{1}, Bounds{Lo: []float64{0}, Hi: []float64{2}}, MultiStartOptions{Starts: 3})
}
