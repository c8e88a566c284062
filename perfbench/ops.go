package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// Workload names, as BENCHMARK.json lists them.
const (
	predictCold = "predict_cold"
	predictWarm = "predict_warm"
	planCold    = "plan_cold"
	planWarm    = "plan_warm"
)

var workloadNames = []string{predictCold, predictWarm, planCold, planWarm}

// The daemon settings every workload runs at: -ops, -starts (mecpid's
// default) and the fit seed mecpid uses when none is configured, which
// every predict response echoes.
const (
	daemonOps    = 20000
	daemonStarts = 12
	fitSeed      = 1

	predictSuite = "cpu2000"
	planSuite    = "cpu2006"
	planBase     = "corei7"

	// warmPool is how many machines (predict_warm) or grids (plan_warm)
	// the set-up fits or simulates before the warm ops repeat them.
	warmPool = 4
)

const (
	pathPredict = "/v1/predict"
	pathPlan    = "/v1/plan"
)

// op is one request of a workload's sequence, together with what its
// answer must look like.
type op struct {
	path string
	body []byte

	// Exactly one of machine (a whole-suite predict) or plan is set.
	machine *experiments.MachineSpec
	suite   string
	plan    *experiments.PlanSpec

	// cold says whether the op must simulate everything it needs (true)
	// or be served from caches alone (false); want is what serving it
	// must cost the daemon, and suiteLen the suite's workload count.
	cold     bool
	want     sourcing
	suiteLen int
}

// sequence is a workload's deterministic op stream: the set-up requests
// that prepare the daemon, then op 0 (the untimed warm-up) and ops 1,
// 2, … of the timed phase, drawn on demand from next.
type sequence struct {
	setup []op
	next  func() op
	// digestOps is the fixed prefix (ops 1..digestOps) whose answers
	// form the run digest and model_mare_pct. The timed phase always
	// completes it, so both are the same on every run of a seed. A warm
	// prefix is long enough to reach every request of its pool.
	digestOps int
}

// newSequence returns the op sequence of the named workload. It is a
// pure function of (workload, seed): the program only ever sees the
// requests generated here.
func newSequence(workload string, seed uint64) (*sequence, error) {
	rng := rand.New(rand.NewPCG(seed, streamOf(workload)))
	predict, err := suites.ByName(predictSuite, suites.Options{NumOps: daemonOps})
	if err != nil {
		return nil, err
	}
	plan, err := suites.ByName(planSuite, suites.Options{NumOps: daemonOps})
	if err != nil {
		return nil, err
	}
	predictLen, planLen := len(predict.Workloads), len(plan.Workloads)
	baseFit := newPredictOp(experiments.MachineSpec{Name: planBase}, planSuite, planLen, true)

	switch workload {
	case predictCold:
		g := newMachineGen(rng, "cold")
		return &sequence{digestOps: 9, next: func() op {
			return newPredictOp(g.next(), predictSuite, predictLen, true)
		}}, nil

	case predictWarm:
		g := newMachineGen(rng, "warm")
		seq := &sequence{digestOps: 100}
		pool := make([]experiments.MachineSpec, warmPool)
		for i := range pool {
			pool[i] = g.next()
			seq.setup = append(seq.setup, newPredictOp(pool[i], predictSuite, predictLen, true))
		}
		seq.next = func() op { return newPredictOp(pool[rng.IntN(len(pool))], predictSuite, predictLen, false) }
		return seq, nil

	case planCold:
		g := newGridGen(rng)
		return &sequence{digestOps: 12, setup: []op{baseFit}, next: func() op {
			return newPlanOp(g.next(), planLen, true)
		}}, nil

	case planWarm:
		g := newGridGen(rng)
		seq := &sequence{digestOps: 100, setup: []op{baseFit}}
		grids := make([]experiments.PlanSpec, warmPool)
		for i := range grids {
			grids[i] = g.next()
			seq.setup = append(seq.setup, newPlanOp(grids[i], planLen, true))
		}
		seq.next = func() op { return newPlanOp(grids[rng.IntN(len(grids))], planLen, false) }
		return seq, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
}

// streamOf gives each workload its own random stream, so one seed
// draws unrelated machines for predict_cold and predict_warm.
func streamOf(workload string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return h.Sum64()
}

// newPredictOp builds a whole-suite predict of machine m on a suite of
// suiteLen workloads: cold (simulate the whole suite, fit once) or warm
// (one model-cache hit).
func newPredictOp(m experiments.MachineSpec, suite string, suiteLen int, cold bool) op {
	body, err := json.Marshal(serve.PredictRequest{Machine: &m, Suite: suite})
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	want := sourcing{modelHits: 1}
	if cold {
		want = sourcing{fits: 1, simulated: suiteLen}
	}
	return op{path: pathPredict, body: body, machine: &m, suite: suite, cold: cold, want: want, suiteLen: suiteLen}
}

// newPlanOp builds a plan over p. Its base fit is a model-cache hit
// either way; cold, every cell simulates, warm, every cell is read
// from the run store.
func newPlanOp(p experiments.PlanSpec, suiteLen int, cold bool) op {
	body, err := json.Marshal(p)
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	runs := len(cellValues(p.Axes)) * suiteLen
	want := sourcing{storeHits: runs, modelHits: 1}
	if cold {
		want = sourcing{simulated: runs, modelHits: 1}
	}
	return op{path: pathPlan, body: body, plan: &p, suite: p.Suite, cold: cold, want: want, suiteLen: suiteLen}
}

// stockBases are the registered machines derived machines start from;
// the generator cycles through them so every run mixes the three
// generations in the same proportion whatever the seed.
var stockBases = []string{"pentium4", "core2", "corei7"}

// machineGen draws derived machines that never repeat: each has a fresh
// name and a (base, overrides) combination not drawn before, and each
// passes uarch.Derive validation. Overrides stay within a factor of
// about two of the base's own values, so the cost of serving a machine
// and its model error vary little from one seed to the next.
type machineGen struct {
	rng  *rand.Rand
	tag  string
	n    int
	seen map[string]bool
}

func newMachineGen(rng *rand.Rand, tag string) *machineGen {
	return &machineGen{rng: rng, tag: tag, seen: map[string]bool{}}
}

func (g *machineGen) next() experiments.MachineSpec {
	for {
		name := stockBases[g.n%len(stockBases)]
		b, err := uarch.ByName(name)
		if err != nil {
			panic(err) // the stock machines are registered at init
		}
		ov := uarch.Overrides{
			ROBSize: 8 * (b.ROBSize/16 + g.rng.IntN(b.ROBSize/8+1)),                       // 0.5–1.5× base
			MemLat:  b.MemLat*7/10 + g.rng.IntN(b.MemLat*6/10+1),                          // 0.7–1.3× base
			MSHRs:   b.MSHRs/2 + g.rng.IntN(b.MSHRs+1),                                    // 0.5–1.5× base
			L2:      uarch.CacheOverrides{SizeBytes: b.L2.SizeBytes / 2 << g.rng.IntN(3)}, // ½, 1 or 2× base
		}
		key := fmt.Sprintf("%s %+v", name, ov)
		spec := experiments.MachineSpec{Name: fmt.Sprintf("%s-%s-%d", g.tag, name, g.n), Base: name, Overrides: ov}
		if g.seen[key] {
			continue
		}
		if _, err := spec.Resolve(); err != nil {
			continue
		}
		g.seen[key] = true
		g.n++
		return spec
	}
}

// Plan grids are 2×2 over a pair of registered axes of the corei7 base,
// cycling through every pair so each run has the same axis mix. Each
// axis takes one value from below the base's and one from above (rob
// 128, mshrs 16, memlat 160, depth 14), within about 60% of the base
// value, so every grid surrounds the fit point at a similar distance
// and no cell is the base machine under another name.
var (
	gridAxes = [][2]string{
		{"rob", "mshrs"}, {"rob", "memlat"}, {"rob", "depth"},
		{"mshrs", "memlat"}, {"mshrs", "depth"}, {"memlat", "depth"},
	}
	axisBands = map[string][2][]int{
		"rob":    {valueRange(48, 120, 8), valueRange(136, 208, 8)},
		"mshrs":  {valueRange(8, 13, 1), valueRange(19, 28, 1)},
		"memlat": {valueRange(112, 148, 4), valueRange(172, 208, 4)},
		"depth":  {valueRange(6, 12, 1), valueRange(16, 22, 1)},
	}
)

func valueRange(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

// gridGen draws plan grids none of whose cells was drawn before, so
// every cell of every grid is a machine the run has never simulated.
type gridGen struct {
	rng   *rand.Rand
	n     int
	cells map[string]bool
}

func newGridGen(rng *rand.Rand) *gridGen {
	return &gridGen{rng: rng, cells: map[string]bool{}}
}

func (g *gridGen) next() experiments.PlanSpec {
	pair := gridAxes[g.n%len(gridAxes)]
	for try := 0; ; try++ {
		if try == 1e6 {
			// Each pair's bands hold dozens of disjoint grids; a run
			// would have to be far faster than any today to get here.
			panic(fmt.Sprintf("perfbench: no fresh %v grid left after %d grids", pair, g.n))
		}
		axes := []experiments.PlanAxis{
			{Param: pair[0], Values: g.lowHigh(pair[0])},
			{Param: pair[1], Values: g.lowHigh(pair[1])},
		}
		keys := gridCells(axes)
		fresh := true
		for _, k := range keys {
			fresh = fresh && !g.cells[k]
		}
		if !fresh {
			continue
		}
		spec := experiments.PlanSpec{Base: experiments.MachineSpec{Name: planBase}, Axes: axes, Suite: planSuite}
		if _, err := spec.Resolve(); err != nil {
			continue
		}
		for _, k := range keys {
			g.cells[k] = true
		}
		g.n++
		return spec
	}
}

// lowHigh draws one value below the base's and one above it.
func (g *gridGen) lowHigh(axis string) []int {
	bands := axisBands[axis]
	return []int{bands[0][g.rng.IntN(len(bands[0]))], bands[1][g.rng.IntN(len(bands[1]))]}
}

// gridCells returns an order-independent identity for every cell of a
// grid ("memlat=84 rob=56"), so the same machine reached through a
// different axis order still counts as a repeat.
func gridCells(axes []experiments.PlanAxis) []string {
	var out []string
	for _, vals := range cellValues(axes) {
		parts := make([]string, len(axes))
		for i, ax := range axes {
			parts[i] = fmt.Sprintf("%s=%d", ax.Param, vals[i])
		}
		sort.Strings(parts)
		out = append(out, strings.Join(parts, " "))
	}
	return out
}

// cellValues enumerates a grid's cells in the plan engine's order:
// row-major, last axis fastest.
func cellValues(axes []experiments.PlanAxis) [][]int {
	cells := [][]int{{}}
	for _, ax := range axes {
		var next [][]int
		for _, c := range cells {
			for _, v := range ax.Values {
				next = append(next, append(append([]int(nil), c...), v))
			}
		}
		cells = next
	}
	return cells
}
