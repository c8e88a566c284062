package experiments

import "repro/internal/sim"

// The wire vocabulary shared by every operation's report. Each
// operation has exactly one report type, declared next to its result
// (PlanReport, SweepReport, OptimizeReport, SeedsReport) and built by
// the result's Report method; the HTTP layer aliases these types, and
// the job engine and cmd/sweep -json marshal the same values, so every
// surface answers byte-comparable JSON.

// StackCPI is one CPI-stack component, in stack order (base first).
type StackCPI struct {
	Component string  `json:"component"`
	CPI       float64 `json:"cpi"`
}

// StackCPIs returns the stack's wire form: every component, in stack
// order.
func StackCPIs(st sim.Stack) []StackCPI {
	out := make([]StackCPI, 0, sim.NumComponents)
	for _, c := range sim.Components() {
		out = append(out, StackCPI{Component: c.String(), CPI: st.Cycles[c]})
	}
	return out
}

// RunSourcing is the wire form of SimStats: where an operation's
// simulation runs came from, and how many µop streams were actually
// generated to serve them (shared trace buffers count one generation
// per workload, not per machine).
type RunSourcing struct {
	StoreHits int `json:"storeHits"`
	Simulated int `json:"simulated"`
	TraceGens int `json:"traceGens"`
}

// Sourcing returns the stats in wire form.
func (s SimStats) Sourcing() RunSourcing {
	return RunSourcing{StoreHits: s.Hits, Simulated: s.Simulated, TraceGens: s.TraceGens}
}

// CellReport is the wire form of one evaluated machine of a grid:
// simulated vs model-extrapolated suite-mean CPI and stacks. RelErr is
// signed (negative = the model under-predicts), matching the serving
// convention.
type CellReport struct {
	Machine    string     `json:"machine"`
	SimCPI     float64    `json:"simCPI"`
	ModelCPI   float64    `json:"modelCPI"`
	RelErr     float64    `json:"relErr"`
	SimStack   []StackCPI `json:"simStack"`
	ModelStack []StackCPI `json:"modelStack"`
}

func cellReport(machine string, simCPI, modelCPI float64, simStack, modelStack sim.Stack) CellReport {
	return CellReport{
		Machine:    machine,
		SimCPI:     simCPI,
		ModelCPI:   modelCPI,
		RelErr:     (modelCPI - simCPI) / simCPI,
		SimStack:   StackCPIs(simStack),
		ModelStack: StackCPIs(modelStack),
	}
}
