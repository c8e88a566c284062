package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// PlanAxis is one explored axis of a plan: a registered sweep parameter
// (see SweepParams) and the values it takes. Values must be positive
// and unique — a duplicated value would silently double-simulate the
// same cell, so validation rejects it on both the CLI and wire paths.
type PlanAxis struct {
	Param  string `json:"param"`
	Values []int  `json:"values"`
}

// PlanSpec is the declarative form of a multi-axis exploration plan:
// the JSON schema of plan files, POST /v1/plan bodies, and plan job
// payloads. Axes are crossed into a full grid of derived machines; the
// model is fitted once at the base configuration and extrapolated to
// every cell — the paper's design-space-exploration use case as one
// request.
type PlanSpec struct {
	Base  MachineSpec `json:"base"`
	Axes  []PlanAxis  `json:"axes"`
	Suite string      `json:"suite"`
}

// MaxPlanCells bounds the grid a single plan may expand to. The cap
// protects the serving layer from a three-axis typo exploding into
// millions of simulations; genuinely larger explorations should be
// split into plans per sub-grid, which the run store then makes
// incremental anyway.
const MaxPlanCells = 4096

// ParsePlanSpec decodes a plan document with the scenario-file rules:
// unknown fields and trailing data are errors.
func ParsePlanSpec(data []byte) (PlanSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var ps PlanSpec
	if err := dec.Decode(&ps); err != nil {
		return PlanSpec{}, fmt.Errorf("experiments: parse plan: %w", err)
	}
	if dec.More() {
		return PlanSpec{}, fmt.Errorf("experiments: parse plan: trailing data after plan document")
	}
	if len(ps.Axes) == 0 {
		return PlanSpec{}, fmt.Errorf("experiments: plan has no axes")
	}
	if ps.Suite == "" {
		return PlanSpec{}, fmt.Errorf("experiments: plan has no suite")
	}
	return ps, nil
}

// LoadPlanSpec reads and parses a plan file.
func LoadPlanSpec(path string) (PlanSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return PlanSpec{}, fmt.Errorf("experiments: %w", err)
	}
	ps, err := ParsePlanSpec(data)
	if err != nil {
		return PlanSpec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return ps, nil
}

// Resolve materializes the spec into a validated Plan: the suite name
// through the suite registry, the base machine through the uarch
// registry, every axis through the param registry, and the full cross
// product into derived machines.
func (ps PlanSpec) Resolve() (*Plan, error) {
	if _, err := suiteWorkloads(ps.Suite); err != nil {
		return nil, err
	}
	base, err := ps.Base.Resolve()
	if err != nil {
		return nil, err
	}
	return NewPlan(base, ps.Axes, ps.Suite)
}

// suiteWorkloads checks a suite name against the registry — failures
// wrap suites.ErrUnknownSuite, which the serving layer classifies — and
// returns the suite's workload count for run accounting. The roster
// depends only on the name, never on ops or seed base, so the default
// instantiation is the cheap one to ask.
func suiteWorkloads(name string) (int, error) {
	suite, err := suites.ByName(name, suites.Options{})
	if err != nil {
		return 0, err
	}
	return len(suite.Workloads), nil
}

// Plan is a validated, fully resolved exploration grid. Machines[0] is
// the base (fit point); Machines[1+i] is the derived machine of
// Cells[i]. Cells enumerate the axis cross product row-major with the
// last axis fastest, each cell holding one value per axis in Axes
// order; a single-axis plan therefore lists its cells in the axis's
// value order, exactly like the legacy one-axis sweep.
type Plan struct {
	Base  *uarch.Machine
	Axes  []PlanAxis
	Suite string

	Machines []*uarch.Machine
	Cells    [][]int

	params []SweepParam // resolved axis params, aligned with Axes
}

// BaseValues returns the base machine's value on each axis, in axis
// order — the fit point of the grid.
func (p *Plan) BaseValues() []int {
	out := make([]int, len(p.params))
	for i, sp := range p.params {
		out[i] = sp.Get(p.Base)
	}
	return out
}

// NewPlan validates the axes against the param registry and expands the
// cross product into derived machines. Every axis must be a registered
// param with positive, duplicate-free values; axes must not repeat; and
// the grid must stay within MaxPlanCells. Derivations are validated, so
// a geometrically impossible cell fails here, before anything
// simulates.
func NewPlan(base *uarch.Machine, axes []PlanAxis, suiteName string) (*Plan, error) {
	if suiteName == "" {
		return nil, fmt.Errorf("experiments: plan needs a suite")
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("experiments: plan needs at least one axis")
	}
	p := &Plan{Base: base, Axes: axes, Suite: suiteName}
	cells := 1
	seen := map[string]bool{}
	for _, ax := range axes {
		sp, err := SweepParamByName(ax.Param)
		if err != nil {
			return nil, err
		}
		if seen[ax.Param] {
			return nil, fmt.Errorf("experiments: plan lists axis %q twice", ax.Param)
		}
		seen[ax.Param] = true
		if err := ValidateSweepValues(ax.Values); err != nil {
			return nil, fmt.Errorf("%w (axis %s)", err, ax.Param)
		}
		p.params = append(p.params, sp)
		// Capping inside the loop keeps the running product small, so
		// a many-axis request cannot overflow it past the check.
		cells *= len(ax.Values)
		if cells > MaxPlanCells {
			return nil, fmt.Errorf("experiments: plan grid exceeds the %d-cell cap", MaxPlanCells)
		}
	}

	p.Machines = make([]*uarch.Machine, 0, 1+cells)
	p.Machines = append(p.Machines, base)
	p.Cells = make([][]int, 0, cells)
	idx := make([]int, len(axes))
	for {
		values := make([]int, len(axes))
		m, name := base, base.Name
		for i, ax := range axes {
			v := ax.Values[idx[i]]
			values[i] = v
			name = fmt.Sprintf("%s-%s%d", name, p.params[i].Name, v)
			var err error
			if m, err = uarch.Derive(m, name, p.params[i].Set(v)); err != nil {
				return nil, err
			}
		}
		p.Cells = append(p.Cells, values)
		p.Machines = append(p.Machines, m)

		// Advance the odometer, last axis fastest.
		k := len(axes) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(axes[k].Values) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return p, nil
}

// PlanPoint is one evaluated grid cell: its axis values (in plan-axis
// order), the derived machine, and the suite-mean simulated vs
// model-extrapolated behaviour.
type PlanPoint struct {
	Values  []int
	Machine string
	// SimCPI and ModelCPI are suite-mean CPIs: the simulator's measured
	// value vs the base-fitted model extrapolated to this cell.
	SimCPI   float64
	ModelCPI float64
	// SimStack and ModelStack are suite-mean per-µop cycle stacks
	// (ground-truth accounting vs model decomposition).
	SimStack   sim.Stack
	ModelStack sim.Stack
}

// Err returns the model's relative CPI error at this cell.
func (p PlanPoint) Err() float64 { return stats.RelErr(p.ModelCPI, p.SimCPI) }

// PlanResult is an executed plan: the model fitted once at the base
// configuration and extrapolated — empirical coefficients frozen,
// machine parameters and counters updated — to every grid cell. The
// one-axis SweepResult is a projection of this (RunSweep adapts it).
type PlanResult struct {
	Base       string
	Axes       []PlanAxis
	BaseValues []int
	Suite      string
	NumOps     int
	Points     []PlanPoint
	Stats      SimStats
}

// PlanCellReport is one evaluated grid cell in wire form: its axis
// values (aligned with the plan's axes) and the cell's CPIs and stacks.
type PlanCellReport struct {
	Values []int `json:"values"`
	CellReport
}

// PlanReport is the wire form of a PlanResult — the one JSON shape
// shared by POST /v1/plan responses, plan job results and cmd/sweep's
// grid -json output. Cells appear row-major with the last axis fastest;
// BaseValues is the fit point on each axis. Sims reports this plan's
// run sourcing: on a warm store a whole grid answers with zero
// simulations and zero trace generations.
type PlanReport struct {
	Base       string           `json:"base"`
	Suite      string           `json:"suite"`
	Ops        int              `json:"ops"`
	Axes       []PlanAxis       `json:"axes"`
	BaseValues []int            `json:"baseValues"`
	Cells      []PlanCellReport `json:"cells"`
	Sims       RunSourcing      `json:"sims"`
}

// Report flattens the result into its wire form.
func (r *PlanResult) Report() *PlanReport {
	rep := &PlanReport{
		Base:       r.Base,
		Suite:      r.Suite,
		Ops:        r.NumOps,
		Axes:       r.Axes,
		BaseValues: r.BaseValues,
		Sims:       r.Stats.Sourcing(),
	}
	for _, pt := range r.Points {
		rep.Cells = append(rep.Cells, PlanCellReport{Values: pt.Values,
			CellReport: cellReport(pt.Machine, pt.SimCPI, pt.ModelCPI, pt.SimStack, pt.ModelStack)})
	}
	return rep
}

// RunPlan simulates the plan's base and every grid cell on its suite
// (through opts.Store when configured, so reruns are incremental, and
// with one materialized trace buffer shared across all the grid's
// machines per workload), fits the model at base, and evaluates it at
// every cell. For a long-running caller that wants the base fit cached
// and deduplicated across plans, use Provider.Plan, which shares the
// extrapolation below.
func RunPlan(p *Plan, opts Options) (*PlanResult, error) {
	return RunPlanContext(context.Background(), p, opts)
}

// RunPlanContext is RunPlan with cancellation: cancelling ctx stops the
// dispatch of new cell simulations and skips the fit, returning
// ctx.Err(). Completed simulations stay in the store, so a rerun
// resumes warm. The async Jobs engine runs plan jobs through here.
func RunPlanContext(ctx context.Context, p *Plan, opts Options) (*PlanResult, error) {
	opts = opts.withDefaults()
	suite, err := suites.ByName(p.Suite, suites.Options{NumOps: opts.NumOps, SeedBase: opts.SeedBase})
	if err != nil {
		return nil, err
	}
	lab, err := NewCustomLab(p.Machines, []suites.Suite{suite}, opts)
	if err != nil {
		return nil, err
	}
	if err := lab.SimulateContext(ctx); err != nil {
		return nil, err
	}
	fitted, err := lab.Model(p.Base.Name, p.Suite)
	if err != nil {
		return nil, err
	}
	return planResult(lab, p, fitted)
}

// planResult extrapolates the base-fitted model to every cell of a
// simulated lab — the shared back half of RunPlan and Provider.Plan,
// and (through the single-axis adapters) of RunSweep and
// Provider.Sweep. The accumulation order is fixed (observations sorted
// by workload name, components in stack order), so identical inputs
// produce bit-identical floats on every path.
func planResult(lab *Lab, p *Plan, fitted *core.Model) (*PlanResult, error) {
	res := &PlanResult{
		Base:       p.Base.Name,
		Axes:       p.Axes,
		BaseValues: p.BaseValues(),
		Suite:      p.Suite,
		NumOps:     lab.NumOps(),
		Stats:      lab.SimStats(),
	}
	for ci, m := range lab.Machines()[1:] {
		// Extrapolate: frozen empirical coefficients, this cell's
		// machine parameters, this cell's measured counters.
		extrap := &core.Model{Machine: m.Params(), P: fitted.P}
		obs, err := lab.Observations(m.Name, p.Suite)
		if err != nil {
			return nil, err
		}
		pt := PlanPoint{Values: p.Cells[ci], Machine: m.Name}
		n := float64(len(obs))
		for _, o := range obs {
			pt.SimCPI += o.MeasuredCPI / n
			pt.ModelCPI += extrap.PredictCPI(o.Feat) / n
			ms := extrap.Stack(o.Feat)
			r, err := lab.Run(m.Name, p.Suite, o.Name)
			if err != nil {
				return nil, err
			}
			ts := r.Truth.CPIStack(r.Counters.Uops)
			for _, c := range sim.Components() {
				pt.SimStack.Cycles[c] += ts.Cycles[c] / n
				pt.ModelStack.Cycles[c] += ms.Cycles[c] / n
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render returns the grid table as text: one row per cell with its
// axis values, the suite-mean simulated vs model-predicted CPI, and
// the relative error, followed by a worst-cell summary.
func (r *PlanResult) Render() string {
	var b strings.Builder
	var axisNames []string
	for _, ax := range r.Axes {
		axisNames = append(axisNames, ax.Param)
	}
	var fitAt []string
	for i, ax := range r.Axes {
		fitAt = append(fitAt, fmt.Sprintf("%s=%d", ax.Param, r.BaseValues[i]))
	}
	fmt.Fprintf(&b, "plan: %s × %s on %s (%d cells, %d µops/workload; model fitted at %s)\n",
		r.Base, strings.Join(axisNames, "×"), r.Suite, len(r.Points), r.NumOps,
		strings.Join(fitAt, " "))
	for _, name := range axisNames {
		fmt.Fprintf(&b, " %7s", name)
	}
	fmt.Fprintf(&b, " %9s %10s %7s\n", "sim-CPI", "model-CPI", "err")
	worst := -1.0
	worstCell := ""
	for _, p := range r.Points {
		for _, v := range p.Values {
			fmt.Fprintf(&b, " %7d", v)
		}
		fmt.Fprintf(&b, " %9.4f %10.4f %6.1f%%\n", p.SimCPI, p.ModelCPI, 100*p.Err())
		if e := p.Err(); e > worst {
			worst = e
			worstCell = p.Machine
		}
	}
	fmt.Fprintf(&b, "worst extrapolation: %s (%.1f%% CPI error)\n", worstCell, 100*worst)
	return b.String()
}
