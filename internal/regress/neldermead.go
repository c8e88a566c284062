package regress

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Objective is a scalar function of a parameter vector to be minimized.
type Objective func(params []float64) float64

// Bounds restricts each parameter to [Lo[i], Hi[i]]. Parameters are
// clamped into the box before the objective is evaluated, which keeps the
// simplex well-behaved on power-law exponents.
type Bounds struct {
	Lo, Hi []float64
}

// Clamp returns a copy of p with every coordinate clamped into the box.
func (b Bounds) Clamp(p []float64) []float64 {
	out := append([]float64(nil), p...)
	b.clampInPlace(out)
	return out
}

// clampInPlace clamps every coordinate of p into the box.
func (b Bounds) clampInPlace(p []float64) {
	for i := range p {
		if i < len(b.Lo) && p[i] < b.Lo[i] {
			p[i] = b.Lo[i]
		}
		if i < len(b.Hi) && p[i] > b.Hi[i] {
			p[i] = b.Hi[i]
		}
	}
}

// Contains reports whether p lies inside the box.
func (b Bounds) Contains(p []float64) bool {
	for i := range p {
		if i < len(b.Lo) && p[i] < b.Lo[i] {
			return false
		}
		if i < len(b.Hi) && p[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// NMOptions configures the Nelder–Mead minimizer.
type NMOptions struct {
	MaxIter int     // maximum simplex iterations (default 2000)
	Tol     float64 // convergence tolerance on objective spread (default 1e-10)
	Scale   float64 // initial simplex edge scale relative to |x0| (default 0.1)
}

func (o NMOptions) withDefaults() NMOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 2000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	return o
}

// Result holds the outcome of a minimization.
type Result struct {
	Params []float64
	Value  float64
	Iters  int
}

// simplexOrder sorts vertex indices by objective value. NelderMead
// reuses one across iterations; sort.Sort runs the same pdqsort as
// sort.Slice, so ties break exactly as they always have.
type simplexOrder struct {
	idx  []int
	vals []float64
}

func (o *simplexOrder) Len() int           { return len(o.idx) }
func (o *simplexOrder) Less(a, b int) bool { return o.vals[o.idx[a]] < o.vals[o.idx[b]] }
func (o *simplexOrder) Swap(a, b int)      { o.idx[a], o.idx[b] = o.idx[b], o.idx[a] }

// NelderMead minimizes f starting from x0 inside bounds using the standard
// simplex method (reflection/expansion/contraction/shrink with the usual
// coefficients 1, 2, 0.5, 0.5). Past the initial simplex it allocates
// nothing: trial points live in reused buffers, and an accepted one is
// copied into the worst vertex's row.
func NelderMead(f Objective, x0 []float64, bounds Bounds, opts NMOptions) Result {
	opts = opts.withDefaults()
	n := len(x0)
	if n == 0 {
		panic("regress: NelderMead needs at least one parameter")
	}
	eval := func(p []float64) float64 {
		bounds.clampInPlace(p)
		v := f(p)
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
		simplex[i+1] = v
		vals[i+1] = eval(v)
	}

	order := &simplexOrder{idx: make([]int, n+1), vals: vals}
	centroid := make([]float64, n)
	refl := make([]float64, n)
	exp := make([]float64, n)
	con := make([]float64, n)
	combine := func(p []float64, alpha float64, worst []float64) float64 {
		for j := range p {
			p[j] = centroid[j] + alpha*(centroid[j]-worst[j])
		}
		return eval(p)
	}
	shrink := func(best int) {
		for _, idx := range order.idx[1:] {
			for j := range simplex[idx] {
				simplex[idx][j] = simplex[best][j] + 0.5*(simplex[idx][j]-simplex[best][j])
			}
			vals[idx] = eval(simplex[idx])
		}
	}
	accept := func(worst int, p []float64, v float64) {
		copy(simplex[worst], p)
		vals[worst] = v
	}

	for iter := 0; iter < opts.MaxIter; iter++ {
		for i := range order.idx {
			order.idx[i] = i
		}
		sort.Sort(order)
		best, worst, second := order.idx[0], order.idx[n], order.idx[n-1]

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
			shrink(best)
			continue
		}

		// Centroid of all vertices except the worst.
		clear(centroid)
		for _, idx := range order.idx[:n] {
			for j := range centroid {
				centroid[j] += simplex[idx][j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(n)
		}

		fRefl := combine(refl, 1, simplex[worst])
		switch {
		case fRefl < vals[best]:
			// Try expanding further in the same direction.
			if fExp := combine(exp, 2, simplex[worst]); fExp < fRefl {
				accept(worst, exp, fExp)
			} else {
				accept(worst, refl, fRefl)
			}
		case fRefl < vals[second]:
			accept(worst, refl, fRefl)
		default:
			// Contract toward the centroid.
			var fCon float64
			if fRefl < vals[worst] {
				fCon = combine(con, 0.5, simplex[worst]) // outside contraction
			} else {
				fCon = combine(con, -0.5, simplex[worst]) // inside contraction
			}
			if fCon < math.Min(fRefl, vals[worst]) {
				accept(worst, con, fCon)
			} else {
				// Shrink everything toward the best vertex.
				shrink(best)
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

// MultiStartOptions configures the multi-start driver.
type MultiStartOptions struct {
	Starts int    // number of random restarts in addition to x0 (default 8)
	Seed   uint64 // RNG seed for the random starts (default 1)
	NM     NMOptions
}

func (o MultiStartOptions) withDefaults() MultiStartOptions {
	if o.Starts <= 0 {
		o.Starts = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// MultiStartNelderMead runs Nelder–Mead from x0 and from opts.Starts
// additional points sampled log-uniformly (when Lo>0) or uniformly inside
// the bounds, returning the best result. This is how the non-convex
// 10-parameter fit of the paper's model avoids poor local minima.
//
// The runs are independent, so they go concurrently on up to GOMAXPROCS
// goroutines. Each run minimizes its own objective from newObjective,
// which lets an objective own scratch buffers; calling it once per run
// rather than once per goroutine keeps both the objectives' state and
// the allocation count independent of the worker count. Every start is
// drawn from the RNG up front in a fixed order and the results are
// reduced in start order, x0 first, keeping a later run only when it is
// strictly better: the result is bit-identical at any GOMAXPROCS.
func MultiStartNelderMead(newObjective func() Objective, x0 []float64, bounds Bounds, opts MultiStartOptions) Result {
	opts = opts.withDefaults()
	if len(bounds.Lo) != len(x0) || len(bounds.Hi) != len(x0) {
		panic(fmt.Sprintf("regress: MultiStartNelderMead bounds dims (%d,%d) do not match x0 (%d)",
			len(bounds.Lo), len(bounds.Hi), len(x0)))
	}
	starts := make([][]float64, opts.Starts+1)
	starts[0] = x0
	r := rng.New(opts.Seed)
	for s := 1; s < len(starts); s++ {
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
		starts[s] = start
	}

	results := make([]Result, len(starts))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	work := func() {
		defer wg.Done()
		defer func() {
			// Re-raised on the caller's goroutine below, as it would
			// have been had the run not left it.
			if p := recover(); p != nil {
				panicMu.Lock()
				panicked = p
				panicMu.Unlock()
			}
		}()
		for {
			s := int(next.Add(1)) - 1
			if s >= len(starts) {
				return
			}
			results[s] = NelderMead(newObjective(), starts[s], bounds, opts.NM)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(starts))
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work() // the caller is a worker too
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}

	best := results[0]
	for _, res := range results[1:] {
		if res.Value < best.Value {
			best = res
		}
	}
	return best
}
