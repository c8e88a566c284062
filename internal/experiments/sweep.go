package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// SweepPoint is one swept machine: its parameter value, the mean
// simulated behaviour of the suite, and the extrapolated model's
// prediction for the same point.
type SweepPoint struct {
	Value   int
	Machine string
	// SimCPI and ModelCPI are suite-mean CPIs: the simulator's measured
	// value vs the base-fitted model extrapolated to this configuration.
	SimCPI   float64
	ModelCPI float64
	// SimStack and ModelStack are suite-mean per-µop cycle stacks
	// (ground-truth accounting vs model decomposition).
	SimStack   sim.Stack
	ModelStack sim.Stack
}

// Err returns the model's relative CPI error at this point.
func (p SweepPoint) Err() float64 { return stats.RelErr(p.ModelCPI, p.SimCPI) }

// SweepResult is a one-axis sensitivity experiment: the model is fitted
// once at the base configuration and extrapolated — empirical
// coefficients frozen, machine parameters and counters updated — to each
// swept configuration, the model-extrapolation study the paper gestures
// at but never runs. It is the single-axis projection of a PlanResult.
type SweepResult struct {
	Base      string
	Param     SweepParam
	BaseValue int
	Suite     string
	NumOps    int
	Points    []SweepPoint
	Stats     SimStats
}

// SweepSpec declares a one-axis sweep: the base machine spec, the
// swept axis, the swept values, and the suite — exactly cmd/sweep's
// flags as JSON, and the schema of POST /v1/sweep bodies and sweep job
// payloads.
type SweepSpec struct {
	Base   MachineSpec `json:"base"`
	Param  string      `json:"param"`
	Values []int       `json:"values"`
	Suite  string      `json:"suite"`
}

// Resolve materializes the spec into the validated one-axis Plan every
// surface executes: base machine, axis, suite and values are checked in
// that order, each before anything simulates, and every swept machine
// is derived.
func (sw SweepSpec) Resolve() (*Plan, error) {
	base, err := sw.Base.Resolve()
	if err != nil {
		return nil, err
	}
	if _, err := SweepParamByName(sw.Param); err != nil {
		return nil, err
	}
	if _, err := suiteWorkloads(sw.Suite); err != nil {
		return nil, err
	}
	if err := ValidateSweepValues(sw.Values); err != nil {
		return nil, err
	}
	return NewPlan(base, []PlanAxis{{Param: sw.Param, Values: sw.Values}}, sw.Suite)
}

// RunSweep simulates base and one derived machine per value on the named
// suite (through opts.Store when configured, so reruns are incremental),
// fits the model at base, and evaluates it at every point. It is a thin
// adapter over the plan engine: a one-axis Plan executed by RunPlan,
// projected back into the sweep shape — values, machine names, and every
// float bit-identical to the pre-plan implementation. For a long-running
// caller that wants the base fit cached and deduplicated across sweeps,
// use Provider.Sweep.
func RunSweep(base *uarch.Machine, param string, values []int, suiteName string, opts Options) (*SweepResult, error) {
	p, err := NewPlan(base, []PlanAxis{{Param: param, Values: values}}, suiteName)
	if err != nil {
		return nil, err
	}
	res, err := RunPlan(p, opts)
	if err != nil {
		return nil, err
	}
	return sweepFromPlan(res)
}

// ValidateSweepValues rejects value lists a sweep or plan axis cannot
// run: empty, non-positive (overrides treat zero as "keep base", which
// would silently mislabel the point as a second base run), or
// duplicated (which would silently double-simulate the same cell).
// This is the single validation source for plan axes and sweeps.
func ValidateSweepValues(values []int) error {
	if len(values) == 0 {
		return fmt.Errorf("experiments: sweep needs at least one value")
	}
	seen := map[int]bool{}
	for _, v := range values {
		if v <= 0 {
			return fmt.Errorf("experiments: sweep value %d must be positive", v)
		}
		if seen[v] {
			return fmt.Errorf("experiments: sweep value %d listed twice", v)
		}
		seen[v] = true
	}
	return nil
}

// sweepFromPlan projects a single-axis plan result into the sweep
// shape. The floats are carried over untouched, so the projection
// preserves bit-identity with the legacy sweep computation.
func sweepFromPlan(res *PlanResult) (*SweepResult, error) {
	if len(res.Axes) != 1 {
		return nil, fmt.Errorf("experiments: sweep projection of a %d-axis plan", len(res.Axes))
	}
	sp, err := SweepParamByName(res.Axes[0].Param)
	if err != nil {
		return nil, err
	}
	out := &SweepResult{
		Base:      res.Base,
		Param:     sp,
		BaseValue: res.BaseValues[0],
		Suite:     res.Suite,
		NumOps:    res.NumOps,
		Stats:     res.Stats,
	}
	for _, pt := range res.Points {
		out.Points = append(out.Points, SweepPoint{
			Value:      pt.Values[0],
			Machine:    pt.Machine,
			SimCPI:     pt.SimCPI,
			ModelCPI:   pt.ModelCPI,
			SimStack:   pt.SimStack,
			ModelStack: pt.ModelStack,
		})
	}
	return out, nil
}

// SweepPointReport is one swept configuration in wire form: its value
// and the point's CPIs and stacks.
type SweepPointReport struct {
	Value int `json:"value"`
	CellReport
}

// SweepReport is the wire form of a SweepResult — the one JSON shape
// shared by POST /v1/sweep responses, sweep job results and cmd/sweep's
// one-axis -json output.
type SweepReport struct {
	Base      string             `json:"base"`
	Param     string             `json:"param"`
	BaseValue int                `json:"baseValue"`
	Suite     string             `json:"suite"`
	Ops       int                `json:"ops"`
	Points    []SweepPointReport `json:"points"`
}

// Report flattens the result into its wire form.
func (r *SweepResult) Report() *SweepReport {
	rep := &SweepReport{
		Base:      r.Base,
		Param:     r.Param.Name,
		BaseValue: r.BaseValue,
		Suite:     r.Suite,
		Ops:       r.NumOps,
	}
	for _, p := range r.Points {
		rep.Points = append(rep.Points, SweepPointReport{Value: p.Value,
			CellReport: cellReport(p.Machine, p.SimCPI, p.ModelCPI, p.SimStack, p.ModelStack)})
	}
	return rep
}

// Render returns the sensitivity tables as text: suite-mean simulated vs
// model-predicted CPI per swept value, then the per-component breakdown.
func (r *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %s %s on %s (%d µops/workload; model fitted at %s=%d)\n",
		r.Base, r.Param.Name, r.Suite, r.NumOps, r.Param.Name, r.BaseValue)
	fmt.Fprintf(&b, "  %8s %9s %10s %7s\n", r.Param.Name, "sim-CPI", "model-CPI", "err")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %8d %9.4f %10.4f %6.1f%%\n", p.Value, p.SimCPI, p.ModelCPI, 100*p.Err())
	}
	b.WriteString("\ncomponent sensitivity (suite-mean cycles/µop, simulated vs model):\n")
	// Only components that matter somewhere in the sweep get a column.
	var comps []sim.Component
	for _, c := range sim.Components() {
		for _, p := range r.Points {
			if p.SimStack.Cycles[c] >= 0.001 || p.ModelStack.Cycles[c] >= 0.001 {
				comps = append(comps, c)
				break
			}
		}
	}
	fmt.Fprintf(&b, "  %8s", r.Param.Name)
	for _, c := range comps {
		fmt.Fprintf(&b, " %17s", c)
	}
	b.WriteByte('\n')
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %8d", p.Value)
		for _, c := range comps {
			fmt.Fprintf(&b, "   %7.4f|%7.4f", p.SimStack.Cycles[c], p.ModelStack.Cycles[c])
		}
		b.WriteByte('\n')
	}
	b.WriteString("  (format: simulated|model)\n")
	return b.String()
}
