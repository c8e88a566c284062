package experiments

import (
	"math"
	"sync"
	"testing"

	"repro/internal/runstore"
	"repro/internal/suites"
	"repro/internal/uarch"
)

func testMachine(t *testing.T, name string) *uarch.Machine {
	t.Helper()
	m, err := uarch.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProviderFitMatchesLabModel(t *testing.T) {
	if testing.Short() {
		t.Skip("fitting is slow")
	}
	opts := Options{NumOps: 3000, FitStarts: 2}
	m := testMachine(t, "core2")

	prov := NewProvider(opts)
	f, err := prov.Fitted(m, "cpu2000")
	if err != nil {
		t.Fatal(err)
	}

	suite, err := suites.ByName("cpu2000", suites.Options{NumOps: opts.NumOps})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewCustomLab([]*uarch.Machine{m}, []suites.Suite{suite}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Simulate(); err != nil {
		t.Fatal(err)
	}
	lm, err := l.Model("core2", "cpu2000")
	if err != nil {
		t.Fatal(err)
	}

	// The provider and the lab share runSimJobs, observationsFor and
	// fitModel, so identical inputs must yield bit-identical parameters.
	if f.Model.P != lm.P {
		t.Errorf("provider fit diverged from lab fit:\n  provider %+v\n  lab      %+v", f.Model.P, lm.P)
	}
	for i := range f.Obs {
		if math.Float64bits(f.Model.PredictCPI(f.Obs[i].Feat)) !=
			math.Float64bits(lm.PredictCPI(f.Obs[i].Feat)) {
			t.Errorf("prediction for %s differs between provider and lab", f.Obs[i].Name)
		}
	}
}

func TestProviderSingleflightDedupes(t *testing.T) {
	if testing.Short() {
		t.Skip("fitting is slow")
	}
	prov := NewProvider(Options{NumOps: 2000, FitStarts: 2})
	m := testMachine(t, "core2")

	const callers = 8
	results := make([]*Fitted, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := prov.Fitted(m, "cpu2000")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = f
		}(i)
	}
	wg.Wait()

	st := prov.Stats()
	if st.Fits != 1 {
		t.Errorf("%d concurrent requests fitted %d models, want exactly 1", callers, st.Fits)
	}
	if st.ModelHits != callers-1 {
		t.Errorf("model hits = %d, want %d", st.ModelHits, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different *Fitted instance", i)
		}
	}

	// A later call is a pure cache hit.
	if _, err := prov.Fitted(m, "cpu2000"); err != nil {
		t.Fatal(err)
	}
	st = prov.Stats()
	if st.Fits != 1 || st.ModelHits != callers {
		t.Errorf("after warm call: fits=%d hits=%d, want 1/%d", st.Fits, st.ModelHits, callers)
	}
	if prov.CachedModels() != 1 {
		t.Errorf("cached models = %d, want 1", prov.CachedModels())
	}
}

func TestProviderDistinctConfigsFitSeparately(t *testing.T) {
	if testing.Short() {
		t.Skip("fitting is slow")
	}
	prov := NewProvider(Options{NumOps: 2000, FitStarts: 2})
	m := testMachine(t, "core2")
	if _, err := prov.Fitted(m, "cpu2000"); err != nil {
		t.Fatal(err)
	}

	// A different machine configuration is a different model.
	d, err := uarch.Derive(m, "core2-rob48", uarch.Overrides{ROBSize: 48})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prov.Fitted(d, "cpu2000"); err != nil {
		t.Fatal(err)
	}
	if st := prov.Stats(); st.Fits != 2 {
		t.Errorf("distinct configs should fit separately: fits=%d, want 2", st.Fits)
	}
}

func TestProviderWarmStoreDispatchesZeroSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("fitting is slow")
	}
	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumOps: 2000, FitStarts: 2, Store: store}
	m := testMachine(t, "core2")

	cold := NewProvider(opts)
	if _, err := cold.Fitted(m, "cpu2000"); err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Sim.Simulated == 0 {
		t.Fatal("cold provider should have simulated")
	}

	warmStore, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewProvider(Options{NumOps: 2000, FitStarts: 2, Store: warmStore})
	wf, err := warm.Fitted(m, "cpu2000")
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Sim.Simulated != 0 {
		t.Errorf("warm provider dispatched %d simulations, want 0", st.Sim.Simulated)
	}
	if st.Sim.Hits == 0 {
		t.Error("warm provider should have served runs from the store")
	}

	// Warm-started fits are bit-identical to cold ones.
	cf, _ := cold.Fitted(m, "cpu2000")
	if wf.Model.P != cf.Model.P {
		t.Errorf("warm fit diverged from cold fit:\n  warm %+v\n  cold %+v", wf.Model.P, cf.Model.P)
	}
}

func TestProviderSweepMatchesRunSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	opts := Options{NumOps: 2000, FitStarts: 2}
	m := testMachine(t, "core2")
	values := []int{48, 96}

	want, err := RunSweep(m, "rob", values, "cpu2000", opts)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := NewPlan(m, []PlanAxis{{Param: "rob", Values: values}}, "cpu2000")
	if err != nil {
		t.Fatal(err)
	}
	prov := NewProvider(opts)
	got, err := prov.Sweep(plan)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Points) != len(want.Points) {
		t.Fatalf("point count %d, want %d", len(got.Points), len(want.Points))
	}
	for i := range got.Points {
		g, w := got.Points[i], want.Points[i]
		if g.Value != w.Value || g.Machine != w.Machine {
			t.Errorf("point %d identity mismatch: %v vs %v", i, g, w)
		}
		if math.Float64bits(g.SimCPI) != math.Float64bits(w.SimCPI) ||
			math.Float64bits(g.ModelCPI) != math.Float64bits(w.ModelCPI) {
			t.Errorf("point %d CPIs diverged: sim %v vs %v, model %v vs %v",
				i, g.SimCPI, w.SimCPI, g.ModelCPI, w.ModelCPI)
		}
	}

	// The sweep shares the provider's model cache: a predict for the
	// same base is now a hit, and a second identical sweep fits nothing.
	fitsAfterOne := prov.Stats().Fits
	if fitsAfterOne != 1 {
		t.Errorf("sweep fitted %d models, want 1", fitsAfterOne)
	}
	if _, err := prov.Sweep(plan); err != nil {
		t.Fatal(err)
	}
	if st := prov.Stats(); st.Fits != 1 {
		t.Errorf("second sweep re-fitted (fits=%d), want cached base model", st.Fits)
	}
}

func TestProviderErrorsAreNotCached(t *testing.T) {
	prov := NewProvider(Options{NumOps: 1000, FitStarts: 2})
	m := testMachine(t, "core2")
	if _, err := prov.Fitted(m, "no-such-suite"); err == nil {
		t.Fatal("unknown suite should fail")
	}
	if prov.CachedModels() != 0 {
		t.Errorf("failed fit left %d cache entries, want 0", prov.CachedModels())
	}
	if st := prov.Stats(); st.Fits != 0 {
		t.Errorf("failed fit counted as a fit (fits=%d)", st.Fits)
	}
}

// TestProviderSweepValidatesBeforeFitting: a bogus sweep request must
// fail before the provider spends a suite simulation and fit on it —
// Provider.Sweep takes the plan SweepSpec.Resolve validated, so every
// rejection lands there.
func TestProviderSweepValidatesBeforeFitting(t *testing.T) {
	prov := NewProvider(Options{NumOps: 1000, FitStarts: 2})
	base := MachineSpec{Name: "core2"}
	for _, tc := range []struct {
		name string
		spec SweepSpec
	}{
		{"unknown sweep param", SweepSpec{Base: base, Param: "bogus", Values: []int{64}, Suite: "cpu2000"}},
		{"non-positive sweep value", SweepSpec{Base: base, Param: "rob", Values: []int{0}, Suite: "cpu2000"}},
		{"empty sweep values", SweepSpec{Base: base, Param: "rob", Suite: "cpu2000"}},
		{"unknown suite", SweepSpec{Base: base, Param: "rob", Values: []int{64}, Suite: "no-such-suite"}},
	} {
		plan, err := tc.spec.Resolve()
		if err == nil {
			_, err = prov.Sweep(plan)
			t.Errorf("%s: resolved to a %d-machine plan (sweep error %v), want a resolve error",
				tc.name, len(plan.Machines), err)
		}
	}
	if st := prov.Stats(); st.Fits != 0 || st.Sim.Simulated != 0 {
		t.Errorf("invalid sweeps spent work: fits=%d simulated=%d, want 0/0",
			st.Fits, st.Sim.Simulated)
	}
}

// TestProviderFailedFitReleasesWaiters: concurrent requests for a key
// whose fit fails must all return the error — nobody hangs on the done
// channel, nothing is cached, and joining a failure is not a hit.
func TestProviderFailedFitReleasesWaiters(t *testing.T) {
	prov := NewProvider(Options{NumOps: 1000, FitStarts: 2})
	m := testMachine(t, "core2")
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := prov.Fitted(m, "no-such-suite"); err == nil {
				t.Error("unknown suite should fail for every caller")
			}
		}()
	}
	wg.Wait()
	st := prov.Stats()
	if st.Fits != 0 || st.ModelHits != 0 {
		t.Errorf("failure run counted fits=%d hits=%d, want 0/0", st.Fits, st.ModelHits)
	}
	if prov.CachedModels() != 0 {
		t.Errorf("failure left %d cache entries, want 0", prov.CachedModels())
	}
}
