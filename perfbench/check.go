package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/serve"
	"repro/internal/sim"
)

// sourcing is what an op must cost the daemon, as its /v1/stats
// counters see it.
type sourcing struct {
	fits, simulated, storeHits, modelHits int
}

func (s *sourcing) add(o sourcing) {
	s.fits += o.fits
	s.simulated += o.simulated
	s.storeHits += o.storeHits
	s.modelHits += o.modelHits
}

// checkAnswer verifies the shape of a 200 answer to o — the machine,
// suite and settings echoed back, one prediction per workload of the
// suite, and for plans the expected cells and run sourcing — and
// returns the answer's model error: the suite-average relative CPI
// error of a predict and the mean |model−sim|/sim over a plan's cells.
func checkAnswer(o op, body []byte) (float64, error) {
	if o.plan != nil {
		return checkPlan(o, body)
	}
	var r serve.PredictResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("decode predict answer: %w", err)
	}
	if r.Machine != o.machine.Name || r.Suite != o.suite || r.Ops != daemonOps ||
		r.FitStarts != daemonStarts || r.Seed != fitSeed {
		return 0, fmt.Errorf("predict answer for %s/%s echoes machine %q suite %q ops %d starts %d seed %d",
			o.machine.Name, o.suite, r.Machine, r.Suite, r.Ops, r.FitStarts, r.Seed)
	}
	for _, w := range r.Workloads {
		if err := checkPrediction(w.PredictedCPI, w.Stack); err != nil {
			return 0, fmt.Errorf("%s/%s: %w", o.machine.Name, w.Workload, err)
		}
	}
	if len(r.Workloads) != o.suiteLen || r.Accuracy == nil {
		return 0, fmt.Errorf("predict on %s answered %d of %d workloads", o.suite, len(r.Workloads), o.suiteLen)
	}
	return r.Accuracy.AvgRelErr, nil
}

func checkPlan(o op, body []byte) (float64, error) {
	var r serve.PlanResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("decode plan answer: %w", err)
	}
	want := cellValues(o.plan.Axes)
	if r.Base != o.plan.Base.Name || r.Suite != o.suite || r.Ops != daemonOps || len(r.Cells) != len(want) {
		return 0, fmt.Errorf("plan answer echoes base %q suite %q ops %d with %d cells (want %d)",
			r.Base, r.Suite, r.Ops, len(r.Cells), len(want))
	}
	var sum float64
	for i, c := range r.Cells {
		if !slices.Equal(c.Values, want[i]) {
			return 0, fmt.Errorf("plan cell %d is %v, want %v", i, c.Values, want[i])
		}
		if err := checkPrediction(c.ModelCPI, c.ModelStack); err != nil {
			return 0, fmt.Errorf("plan cell %s: %w", c.Machine, err)
		}
		sum += math.Abs(c.RelErr)
	}
	exp := o.want
	if s := r.Sims; s.Simulated != exp.simulated || s.StoreHits != exp.storeHits ||
		(exp.simulated == 0) != (s.TraceGens == 0) {
		return 0, fmt.Errorf("plan sourced %d simulated / %d store hits / %d trace generations, want %d / %d (cold=%v)",
			s.Simulated, s.StoreHits, s.TraceGens, exp.simulated, exp.storeHits, o.cold)
	}
	return sum / float64(len(r.Cells)), nil
}

// checkPrediction rejects a CPI or stack that is not a finite positive
// number with one entry per stack component.
func checkPrediction(cpi float64, stack []serve.StackEntry) error {
	if !(cpi > 0) || math.IsInf(cpi, 0) {
		return fmt.Errorf("predicted CPI %v", cpi)
	}
	if len(stack) != int(sim.NumComponents) {
		return fmt.Errorf("stack has %d components, want %d", len(stack), sim.NumComponents)
	}
	return nil
}
