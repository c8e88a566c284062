package regress

import (
	"math"
	"testing"
)

func quadratic(center []float64) Objective {
	return func(p []float64) float64 {
		var s float64
		for i := range p {
			d := p[i] - center[i]
			s += d * d
		}
		return s
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := quadratic([]float64{3, -2})
	b := Bounds{Lo: []float64{-10, -10}, Hi: []float64{10, 10}}
	res := NelderMead(f, []float64{0, 0}, b, NMOptions{})
	if math.Abs(res.Params[0]-3) > 1e-4 || math.Abs(res.Params[1]+2) > 1e-4 {
		t.Errorf("got %v", res.Params)
	}
	if res.Value > 1e-7 {
		t.Errorf("value %v", res.Value)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	rosen := func(p []float64) float64 {
		a := 1 - p[0]
		b := p[1] - p[0]*p[0]
		return a*a + 100*b*b
	}
	b := Bounds{Lo: []float64{-5, -5}, Hi: []float64{5, 5}}
	res := NelderMead(rosen, []float64{-1.2, 1}, b, NMOptions{MaxIter: 5000})
	if math.Abs(res.Params[0]-1) > 1e-3 || math.Abs(res.Params[1]-1) > 1e-3 {
		t.Errorf("rosenbrock min at %v, want (1,1), f=%v", res.Params, res.Value)
	}
}

func TestNelderMeadRespectsBounds(t *testing.T) {
	f := quadratic([]float64{10}) // true min outside the box
	b := Bounds{Lo: []float64{-1}, Hi: []float64{2}}
	res := NelderMead(f, []float64{0}, b, NMOptions{})
	if res.Params[0] < -1-1e-12 || res.Params[0] > 2+1e-12 {
		t.Errorf("solution %v escaped bounds", res.Params)
	}
	if math.Abs(res.Params[0]-2) > 1e-3 {
		t.Errorf("bounded min should be at upper bound 2, got %v", res.Params[0])
	}
}

func TestNelderMeadHandlesNaN(t *testing.T) {
	f := func(p []float64) float64 {
		if p[0] < 0 {
			return math.NaN()
		}
		return (p[0] - 1) * (p[0] - 1)
	}
	b := Bounds{Lo: []float64{-5}, Hi: []float64{5}}
	res := NelderMead(f, []float64{4}, b, NMOptions{})
	if math.Abs(res.Params[0]-1) > 1e-3 {
		t.Errorf("got %v", res.Params)
	}
}

func TestNelderMeadEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty x0")
		}
	}()
	NelderMead(quadratic(nil), nil, Bounds{}, NMOptions{})
}

func TestBoundsClampContains(t *testing.T) {
	b := Bounds{Lo: []float64{0, -1}, Hi: []float64{1, 1}}
	c := b.Clamp([]float64{2, -3})
	if c[0] != 1 || c[1] != -1 {
		t.Errorf("clamp got %v", c)
	}
	if b.Contains([]float64{2, 0}) {
		t.Error("Contains should be false outside box")
	}
	if !b.Contains([]float64{0.5, 0}) {
		t.Error("Contains should be true inside box")
	}
}

func TestMultiStartFindsGlobalMin(t *testing.T) {
	// Double-well: local min near x=4 (value 1), global near x=1 (value 0).
	f := func(p []float64) float64 {
		x := p[0]
		a := (x - 1) * (x - 1)
		b := (x-4)*(x-4) + 1
		return math.Min(a, b)
	}
	bounds := Bounds{Lo: []float64{0.1}, Hi: []float64{10}}
	// Plain NM from x0=5 lands in the local well…
	local := NelderMead(f, []float64{5}, bounds, NMOptions{})
	if math.Abs(local.Params[0]-4) > 0.1 {
		t.Skipf("local run unexpectedly escaped; got %v", local.Params)
	}
	// …but multi-start explores enough to find the global one.
	global := MultiStartNelderMead(func() Objective { return f }, []float64{5}, bounds, MultiStartOptions{Starts: 16, Seed: 3})
	if math.Abs(global.Params[0]-1) > 0.05 {
		t.Errorf("multi-start got %v, want ~1", global.Params)
	}
}

func TestMultiStartDeterministic(t *testing.T) {
	f := quadratic([]float64{2, 2, 2})
	b := Bounds{Lo: []float64{0, 0, 0}, Hi: []float64{5, 5, 5}}
	r1 := MultiStartNelderMead(func() Objective { return f }, []float64{1, 1, 1}, b, MultiStartOptions{Starts: 4, Seed: 9})
	r2 := MultiStartNelderMead(func() Objective { return f }, []float64{1, 1, 1}, b, MultiStartOptions{Starts: 4, Seed: 9})
	for i := range r1.Params {
		if r1.Params[i] != r2.Params[i] {
			t.Fatalf("non-deterministic multi-start: %v vs %v", r1.Params, r2.Params)
		}
	}
}

func TestMultiStartBoundsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched bounds")
		}
	}()
	MultiStartNelderMead(func() Objective { return quadratic([]float64{0}) }, []float64{0},
		Bounds{Lo: []float64{0, 0}, Hi: []float64{1, 1}}, MultiStartOptions{})
}

func TestLevenbergMarquardtExponentialFit(t *testing.T) {
	// Fit y = a·exp(b·x) to noiseless data with a=2, b=0.5.
	xs := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 * math.Exp(0.5*x)
	}
	resid := func(p []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = p[0]*math.Exp(p[1]*x) - ys[i]
		}
		return out
	}
	b := Bounds{Lo: []float64{0.01, -2}, Hi: []float64{100, 2}}
	res := LevenbergMarquardt(resid, []float64{1, 0.1}, b, LMOptions{})
	if math.Abs(res.Params[0]-2) > 1e-5 || math.Abs(res.Params[1]-0.5) > 1e-5 {
		t.Errorf("LM got %v, want (2, 0.5); cost %v", res.Params, res.Value)
	}
}

func TestLevenbergMarquardtAtBound(t *testing.T) {
	// Minimum outside the box; LM must converge to the boundary without
	// stalling on the clamped finite-difference step.
	resid := func(p []float64) []float64 { return []float64{p[0] - 5} }
	b := Bounds{Lo: []float64{0}, Hi: []float64{2}}
	res := LevenbergMarquardt(resid, []float64{1}, b, LMOptions{})
	if math.Abs(res.Params[0]-2) > 1e-6 {
		t.Errorf("got %v, want 2 (boundary)", res.Params[0])
	}
}

func TestMinimizeRelSq(t *testing.T) {
	// Model: y = p0·x^p1 on positive data; fit in the relative-error sense.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 0.7)
	}
	predict := func(p, out []float64) {
		for i, x := range xs {
			out[i] = p[0] * math.Pow(x, p[1])
		}
	}
	b := Bounds{Lo: []float64{0.01, 0}, Hi: []float64{100, 3}}
	res := MinimizeRelSq(predict, ys, []float64{1, 1}, b, MultiStartOptions{Starts: 6, Seed: 2})
	if math.Abs(res.Params[0]-3) > 1e-3 || math.Abs(res.Params[1]-0.7) > 1e-3 {
		t.Errorf("got %v, want (3, 0.7)", res.Params)
	}
}
