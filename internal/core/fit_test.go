package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/perfctr"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// testCounters is a consistent counter fixture for delta tests.
func testCounters() perfctr.Counters {
	return perfctr.Counters{
		Cycles: 2_000_000, Uops: 1_000_000, Instructions: 700_000,
		Branches: 120_000, BranchMispredicts: 4_000,
		L1IMisses: 8_000, L2IMisses: 500, LLCIMisses: 500, ITLBMisses: 200,
		L1DLoadMisses: 30_000, L1DLoadL2Hits: 26_000, LLCDLoadMisses: 2_500,
		DTLBMisses: 900, FPOps: 90_000,
	}
}

// syntheticObservations draws features from plausible ranges and labels
// them with a known ground-truth model (+ optional multiplicative noise).
func syntheticObservations(n int, seed uint64, noise float64) ([]Observation, *Model) {
	truth := &Model{Machine: testMachineParams(), P: testParams()}
	r := rng.New(seed)
	obs := make([]Observation, n)
	for i := range obs {
		f := Features{
			MpuL1I:  0.01 * r.Float64() * r.Float64(),
			MpuLLCI: 0.001 * r.Float64() * r.Float64(),
			MpuITLB: 0.0005 * r.Float64() * r.Float64(),
			MpuBr:   0.015*r.Float64()*r.Float64() + 0.0001,
			MpuDL1:  0.03 * r.Float64(),
			MpuLLCD: 0.004 * r.Float64() * r.Float64(),
			MpuDTLB: 0.001 * r.Float64() * r.Float64(),
			FP:      0.35 * r.Float64(),
		}
		cpi := truth.PredictCPI(f) * (1 + noise*(2*r.Float64()-1))
		obs[i] = Observation{Name: "synth", Feat: f, MeasuredCPI: cpi}
	}
	return obs, truth
}

func TestFitRecoversSyntheticModel(t *testing.T) {
	obs, _ := syntheticObservations(60, 5, 0)
	m, err := Fit(testMachineParams(), obs, FitOptions{Starts: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.PredictAll(obs)
	meas := make([]float64, len(obs))
	for i := range obs {
		meas[i] = obs[i].MeasuredCPI
	}
	if mare := stats.MARE(pred, meas); mare > 0.02 {
		t.Errorf("noiseless synthetic fit MARE %.4f, want < 0.02", mare)
	}
}

func TestFitToleratesNoise(t *testing.T) {
	obs, _ := syntheticObservations(60, 7, 0.10)
	m, err := Fit(testMachineParams(), obs, FitOptions{Starts: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.PredictAll(obs)
	meas := make([]float64, len(obs))
	for i := range obs {
		meas[i] = obs[i].MeasuredCPI
	}
	if mare := stats.MARE(pred, meas); mare > 0.10 {
		t.Errorf("noisy synthetic fit MARE %.4f, want <= noise level 0.10", mare)
	}
}

func TestFitDeterministic(t *testing.T) {
	obs, _ := syntheticObservations(30, 9, 0.05)
	a, err := Fit(testMachineParams(), obs, FitOptions{Starts: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(testMachineParams(), obs, FitOptions{Starts: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.P != b.P {
		t.Errorf("fits differ:\n%+v\n%+v", a.P, b.P)
	}
}

// pinnedFitBits are the math.Float64bits of the b1..b10 that
// TestFitBitsPinned fits, recorded from a sequential multi-start fit.
// A mismatch means a float the goldens and the stored reports are built
// from has changed.
var pinnedFitBits = []struct {
	name string
	opts FitOptions
	bits [10]uint64
}{
	{"full", FitOptions{}, [10]uint64{0x40325ab4900c1afd, 0x3f6e252831b70495, 0x0000000000000000, 0x0000000000000000, 0x3ff3d097645a9761, 0x0000000000000000, 0x3f96f8a5474b7b82, 0x3fa5657f36349c44, 0x400d0c1d23ea5153, 0x404be12587c15c7e}},
	{"additive-branch", FitOptions{AdditiveBranch: true}, [10]uint64{0x403276f9c0fd4094, 0x3f32b2f7c564d153, 0x0000000000000000, 0x0000000000000000, 0x3ff995ebbaf3137a, 0x3fa5cd604ab33fee, 0x3f96f01ed814e77d, 0x3fa4dc952860273e, 0x400c97529d987444, 0x404d0eb0b53fdd0c}},
	{"constant-mlp", FitOptions{ConstantMLP: true}, [10]uint64{0x40325d4c90254dca, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x3fa999999999999a, 0x3fa7787a2d8862cd, 0x3f9631b28cbcb4f0, 0x3fa49a0933a74054, 0x400a68a35fa54363, 0x404f8c1aa41c34a1}},
	{"unscaled-stall", FitOptions{UnscaledStall: true}, [10]uint64{0x40042d9bcb70ff2a, 0x3fd6f04121bc7f33, 0x0000000000000000, 0x0000000000000000, 0x4006dd9f15b725ad, 0x3fa05b0efd5368e4, 0x3fb402b0ebc9c508, 0x3f9baa6c41a3e259, 0x4016496c83499971, 0x402f4feb5c511c70}},
	{"no-window-cap", FitOptions{NoWindowCap: true}, [10]uint64{0x40325a0f38632995, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x401f210714b0ee74, 0x0000000000000000, 0x3fd252202b924359, 0x3fa4f0834aca916a, 0x400aabd479099697, 0x404e83016dad6075}},
}

// TestFitBitsPinned holds every fitted parameter, bit for bit, for the
// paper's model and each ablation switch, at one, two and eight Ps: the
// multi-starts run concurrently, and neither the worker count nor the
// scheduling may leak into a single float.
func TestFitBitsPinned(t *testing.T) {
	obs, _ := syntheticObservations(24, 21, 0.08)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range pinnedFitBits {
			opts := c.opts
			opts.Starts, opts.Seed = 4, 5
			m, err := Fit(testMachineParams(), obs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range m.P.Slice() {
				if got := math.Float64bits(v); got != c.bits[i] {
					t.Errorf("GOMAXPROCS=%d %s: %s bits %#016x (%v), pinned %#016x (%v)",
						procs, c.name, ParamNames()[i], got, v, c.bits[i], math.Float64frombits(c.bits[i]))
				}
			}
		}
	}
}

func TestFitErrors(t *testing.T) {
	obs, _ := syntheticObservations(5, 1, 0)
	if _, err := Fit(testMachineParams(), obs, FitOptions{}); err == nil {
		t.Error("expected error with too few observations")
	}
	obs, _ = syntheticObservations(20, 1, 0)
	if _, err := Fit(uarch.ModelParams{}, obs, FitOptions{}); err == nil {
		t.Error("expected error with invalid machine params")
	}
	obs[3].MeasuredCPI = 0
	if _, err := Fit(testMachineParams(), obs, FitOptions{}); err == nil {
		t.Error("expected error with non-positive CPI")
	}
}

// TestFitOnSimulatedWorkloads is the end-to-end heart of the
// reproduction: simulate a slice of the CPU2000-like suite on the Core 2
// machine, fit the model on the resulting counters, and require a Figure
// 2-like accuracy (the paper reports ~10% average error; the bar here is
// deliberately looser because this subset is small and short).
func TestFitOnSimulatedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	m := uarch.CoreTwo()
	s, err := sim.New(m)
	if err != nil {
		t.Fatal(err)
	}
	suite := suites.CPU2000Like(suites.Options{NumOps: 80000})
	var obs []Observation
	for i, w := range suite.Workloads {
		if i%2 == 1 { // every other workload: keep the test fast
			continue
		}
		r, err := s.Run(trace.New(w))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		o, err := ObservationFrom(w.Name, &r.Counters)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		obs = append(obs, o)
	}
	model, err := Fit(m.Params(), obs, FitOptions{Starts: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	pred := model.PredictAll(obs)
	meas := make([]float64, len(obs))
	for i := range obs {
		meas[i] = obs[i].MeasuredCPI
	}
	mare := stats.MARE(pred, meas)
	t.Logf("end-to-end fit on %d workloads: MARE %.1f%%", len(obs), 100*mare)
	if mare > 0.20 {
		t.Errorf("end-to-end MARE %.1f%%, want < 20%%", 100*mare)
	}
}

func TestComputeDeltaSelfIsZero(t *testing.T) {
	// Comparing a machine against itself must yield an all-zero delta.
	ctr := testCounters()
	model := &Model{Machine: testMachineParams(), P: testParams()}
	runs := []MachineRun{{Name: "w1", Ctr: ctr}}
	d, err := ComputeDelta("a", model, runs, "b", model, runs)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"width": d.Overall.Width, "fusion": d.Overall.Fusion,
		"icache": d.Overall.ICache, "memory": d.Overall.Memory,
		"branch": d.Overall.Branch, "other": d.Overall.Other,
		"br-miss": d.Branch.Mispredictions, "br-res": d.Branch.Resolution,
		"br-fe": d.Branch.FrontEnd, "llc-miss": d.LLC.Misses,
		"llc-lat": d.LLC.Latency, "llc-mlp": d.LLC.MLP,
	} {
		if math.Abs(v) > 1e-12 {
			t.Errorf("self-delta %s = %v, want 0", name, v)
		}
	}
}

func TestComputeDeltaErrors(t *testing.T) {
	model := &Model{Machine: testMachineParams(), P: testParams()}
	ctr := testCounters()
	if _, err := ComputeDelta("a", model, nil, "b", model, nil); err == nil {
		t.Error("expected error on empty runs")
	}
	oldRuns := []MachineRun{{Name: "w1", Ctr: ctr}}
	newRuns := []MachineRun{{Name: "other", Ctr: ctr}}
	if _, err := ComputeDelta("a", model, oldRuns, "b", model, newRuns); err == nil {
		t.Error("expected error on mismatched workload names")
	}
}

func TestDeltaDecompositionSumsMatch(t *testing.T) {
	// The branch factor deltas must sum to the branch-component change
	// computed directly from the two models.
	oldM := &Model{Machine: uarch.PentiumFour().Params(), P: testParams()}
	newM := &Model{Machine: uarch.CoreTwo().Params(), P: testParams()}
	oldCtr := testCounters()
	newCtr := oldCtr
	newCtr.BranchMispredicts = oldCtr.BranchMispredicts * 2 // worse predictor
	newCtr.Uops = oldCtr.Uops * 9 / 10                      // fusion
	oldRuns := []MachineRun{{Name: "w", Ctr: oldCtr}}
	newRuns := []MachineRun{{Name: "w", Ctr: newCtr}}
	d, err := ComputeDelta("p4", oldM, oldRuns, "core2", newM, newRuns)
	if err != nil {
		t.Fatal(err)
	}
	of, _ := FeaturesFrom(&oldCtr)
	nf, _ := FeaturesFrom(&newCtr)
	oMPI := float64(oldCtr.BranchMispredicts) / float64(oldCtr.Instructions)
	nMPI := float64(newCtr.BranchMispredicts) / float64(newCtr.Instructions)
	wantBranch := nMPI*(newM.BranchResolution(nf)+float64(newM.Machine.FrontEndDepth)) -
		oMPI*(oldM.BranchResolution(of)+float64(oldM.Machine.FrontEndDepth))
	if math.Abs(d.Branch.Total()-wantBranch) > 1e-9 {
		t.Errorf("branch factor sum %v, want %v", d.Branch.Total(), wantBranch)
	}
	// LLC factors likewise.
	oMiss := float64(oldCtr.LLCDLoadMisses) / float64(oldCtr.Instructions)
	nMiss := float64(newCtr.LLCDLoadMisses) / float64(newCtr.Instructions)
	wantLLC := nMiss*float64(newM.Machine.MemLat)/newM.MLP(nf) -
		oMiss*float64(oldM.Machine.MemLat)/oldM.MLP(of)
	if math.Abs(d.LLC.Total()-wantLLC) > 1e-9 {
		t.Errorf("LLC factor sum %v, want %v", d.LLC.Total(), wantLLC)
	}
	// Overall total equals the model-CPI-per-instruction change.
	oUPI := float64(oldCtr.Uops) / float64(oldCtr.Instructions)
	nUPI := float64(newCtr.Uops) / float64(newCtr.Instructions)
	wantTotal := newM.PredictCPI(nf)*nUPI - oldM.PredictCPI(of)*oUPI
	if math.Abs(d.Overall.Total()-wantTotal) > 1e-9 {
		t.Errorf("overall total %v, want %v", d.Overall.Total(), wantTotal)
	}
}
