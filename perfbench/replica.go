package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runstore"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// replica answers a workload's requests in process, through the same
// public layer calls mecpid's handlers reach, with a span around each
// call. It runs sequentially: the daemon's worker pool would overlap
// simulations and blur each layer's share of the op. Cold simulations
// materialize each µop stream before replaying it (the daemon streams
// unshared workloads straight from the generator), which yields the
// same results and keeps generation and simulation apart.
type replica struct {
	prov  *experiments.Provider // serves the warm Fitted path
	held  map[string]bool       // fitKey of every fit prov holds
	store *runstore.Store
	tr    *tracer // nil: untraced
	n     counts
	spare []trace.MicroOp // recycled µop backing store
}

// counts tallies the work the replica did, at the same boundaries its
// spans cover.
type counts struct {
	storeHits, storeMisses int
	simulated, traceGens   int
	fits                   int
	simOps, genOps         int64 // µops simulated and generated
	respBytes              int64
}

func (c counts) minus(o counts) counts {
	return counts{
		storeHits: c.storeHits - o.storeHits, storeMisses: c.storeMisses - o.storeMisses,
		simulated: c.simulated - o.simulated, traceGens: c.traceGens - o.traceGens,
		fits:   c.fits - o.fits,
		simOps: c.simOps - o.simOps, genOps: c.genOps - o.genOps,
		respBytes: c.respBytes - o.respBytes,
	}
}

// do answers one request and returns the encoded response, exactly as
// mecpid would write it.
func (r *replica) do(path string, body []byte) ([]byte, error) {
	switch path {
	case pathPredict:
		return r.predict(body)
	case pathPlan:
		return r.plan(body)
	}
	return nil, fmt.Errorf("replica: no route %s", path)
}

func (r *replica) predict(body []byte) ([]byte, error) {
	var req serve.PredictRequest
	if err := r.decode(body, &req); err != nil {
		return nil, err
	}
	if req.Machine == nil {
		return nil, errors.New("replica: only single-machine predicts are replicated")
	}
	sp := r.tr.begin("uarch.resolve")
	m, err := req.Machine.Resolve()
	var hash string
	if err == nil {
		hash = m.ConfigHash()
	}
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if req.Workload != "" {
		return nil, errors.New("replica: only whole-suite predicts are replicated")
	}
	suite, err := r.suite(req.Suite)
	if err != nil {
		return nil, err
	}

	var model *core.Model
	var obs []core.Observation
	if r.held[fitKey(m, req.Suite)] {
		f, err := r.fittedHit(m, req.Suite)
		if err != nil {
			return nil, err
		}
		model, obs = f.Model, f.Obs
	} else if model, obs, err = r.fit(m, suite); err != nil {
		return nil, err
	}

	preds := make([]float64, len(obs))
	stacks := make([]sim.Stack, len(obs))
	for i := range obs {
		sp := r.tr.begin("core.stack")
		preds[i] = model.PredictCPI(obs[i].Feat)
		stacks[i] = model.Stack(obs[i].Feat)
		r.tr.end(sp)
	}
	return r.encode(func() any {
		resp := serve.PredictResponse{
			Machine: m.Name, ConfigHash: hash, Suite: req.Suite,
			Ops: daemonOps, FitStarts: daemonStarts, Seed: fitSeed, Params: model.P,
		}
		errs := make([]float64, 0, len(obs))
		for i, o := range obs {
			resp.Workloads = append(resp.Workloads, serve.WorkloadPrediction{
				Workload:     o.Name,
				MeasuredCPI:  o.MeasuredCPI,
				PredictedCPI: preds[i],
				RelErr:       (preds[i] - o.MeasuredCPI) / o.MeasuredCPI,
				Stack:        stackEntries(stacks[i]),
			})
			errs = append(errs, stats.RelErr(preds[i], o.MeasuredCPI))
		}
		resp.Accuracy = &serve.SuiteAccuracy{
			AvgRelErr:      stats.Mean(errs),
			MaxRelErr:      stats.Max(errs),
			FracBelow20Pct: stats.FractionBelow(errs, 0.20),
		}
		return resp
	})
}

func (r *replica) plan(body []byte) ([]byte, error) {
	var req experiments.PlanSpec
	if err := r.decode(body, &req); err != nil {
		return nil, err
	}
	suite, err := r.suite(req.Suite)
	if err != nil {
		return nil, err
	}
	sp := r.tr.begin("uarch.resolve")
	p, err := req.Resolve()
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	f, err := r.fittedHit(p.Base, p.Suite)
	if err != nil {
		return nil, err
	}

	// Look every cell run up in the store, machine by machine as the
	// plan engine enqueues them; then simulate the misses workload by
	// workload, one materialized stream replayed on every cell that
	// needs it.
	cells := p.Machines[1:]
	runs := make([]map[string]*sim.Result, len(cells))
	missing := map[string][]int{}
	var st experiments.SimStats
	for ci, m := range cells {
		runs[ci] = make(map[string]*sim.Result, len(suite.Workloads))
		for _, w := range suite.Workloads {
			res, ok, err := r.get(m, w)
			if err != nil {
				return nil, err
			}
			if ok {
				runs[ci][w.Name] = res
				st.Hits++
			} else {
				missing[w.Name] = append(missing[w.Name], ci)
			}
		}
	}
	sims := make([]*sim.Simulator, len(cells))
	for _, w := range suite.Workloads {
		idx := missing[w.Name]
		if len(idx) == 0 {
			continue
		}
		buf, err := r.materialize(w)
		if err != nil {
			return nil, err
		}
		st.TraceGens++
		for _, ci := range idx {
			if sims[ci] == nil {
				if sims[ci], err = r.newSim(cells[ci]); err != nil {
					return nil, err
				}
			}
			res, err := r.run(sims[ci], buf.Replay(), w)
			if err != nil {
				return nil, err
			}
			if err := r.put(cells[ci], w, res); err != nil {
				return nil, err
			}
			runs[ci][w.Name] = res
			st.Simulated++
		}
		r.spare = buf.ReleaseOps()
	}

	// Extrapolate the base fit to every cell in experiments'
	// accumulation order, so every float matches the daemon's.
	sp = r.tr.begin("experiments.extrapolate")
	res := &experiments.PlanResult{
		Base: p.Base.Name, Axes: p.Axes, BaseValues: p.BaseValues(),
		Suite: p.Suite, NumOps: daemonOps, Stats: st,
	}
	for ci, m := range cells {
		extrap := &core.Model{Machine: m.Params(), P: f.Model.P}
		obs, err := r.observations(suite, runs[ci])
		if err != nil {
			r.tr.end(sp)
			return nil, err
		}
		pt := experiments.PlanPoint{Values: p.Cells[ci], Machine: m.Name}
		n := float64(len(obs))
		for _, o := range obs {
			csp := r.tr.begin("core.stack")
			pred := extrap.PredictCPI(o.Feat)
			ms := extrap.Stack(o.Feat)
			r.tr.end(csp)
			pt.SimCPI += o.MeasuredCPI / n
			pt.ModelCPI += pred / n
			run := runs[ci][o.Name]
			ts := run.Truth.CPIStack(run.Counters.Uops)
			for _, c := range sim.Components() {
				pt.SimStack.Cycles[c] += ts.Cycles[c] / n
				pt.ModelStack.Cycles[c] += ms.Cycles[c] / n
			}
		}
		res.Points = append(res.Points, pt)
	}
	r.tr.end(sp)
	return r.encode(func() any { return serve.PlanResponseFrom(res) })
}

// fit simulates the suite on m through the run store and fits the
// model, as experiments.Provider does for an uncached machine.
func (r *replica) fit(m *uarch.Machine, suite suites.Suite) (*core.Model, []core.Observation, error) {
	runs := make(map[string]*sim.Result, len(suite.Workloads))
	var s *sim.Simulator
	for _, w := range suite.Workloads {
		res, ok, err := r.get(m, w)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			if s == nil {
				if s, err = r.newSim(m); err != nil {
					return nil, nil, err
				}
			}
			buf, err := r.materialize(w)
			if err != nil {
				return nil, nil, err
			}
			res, err = r.run(s, buf, w)
			r.spare = buf.ReleaseOps()
			if err != nil {
				return nil, nil, err
			}
			if err := r.put(m, w, res); err != nil {
				return nil, nil, err
			}
		}
		runs[w.Name] = res
	}
	obs, err := r.observations(suite, runs)
	if err != nil {
		return nil, nil, err
	}
	sp := r.tr.begin("core.fit")
	model, err := core.Fit(m.Params(), obs, core.FitOptions{Starts: daemonStarts, Seed: fitSeed})
	r.tr.end(sp)
	r.n.fits++
	return model, obs, err
}

// fitKey names a machine's fit on a suite.
func fitKey(m *uarch.Machine, suite string) string { return m.ConfigHash() + " " + suite }

// fittedHit asks the provider for a model it must already hold.
func (r *replica) fittedHit(m *uarch.Machine, suite string) (*experiments.Fitted, error) {
	fits := r.prov.Stats().Fits
	sp := r.tr.begin("experiments.fitted_hit")
	f, err := r.prov.Fitted(m, suite)
	r.tr.end(sp)
	if err == nil && r.prov.Stats().Fits != fits {
		err = fmt.Errorf("replica: %s on %s was not in the model cache", m.Name, suite)
	}
	return f, err
}

// observations converts a run set into model observations sorted by
// workload name, the order every fit and extrapolation uses.
func (r *replica) observations(suite suites.Suite, runs map[string]*sim.Result) ([]core.Observation, error) {
	obs := make([]core.Observation, 0, len(suite.Workloads))
	for _, w := range suite.Workloads {
		sp := r.tr.begin("core.observation")
		o, err := core.ObservationFrom(w.Name, &runs[w.Name].Counters)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		obs = append(obs, o)
	}
	sort.Slice(obs, func(i, j int) bool { return obs[i].Name < obs[j].Name })
	return obs, nil
}

func (r *replica) decode(body []byte, v any) error {
	sp := r.tr.begin("serve.decode")
	defer r.tr.end(sp)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parse request: %w", err)
	}
	if dec.More() {
		return errors.New("parse request: trailing data after JSON document")
	}
	return nil
}

// suite builds the named suite.
func (r *replica) suite(name string) (suites.Suite, error) {
	sp := r.tr.begin("suites.build")
	defer r.tr.end(sp)
	return suites.ByName(name, suites.Options{NumOps: daemonOps})
}

// encode writes the response the way mecpid does: indented JSON and a
// newline. build runs inside the span, so wire conversion counts too.
func (r *replica) encode(build func() any) ([]byte, error) {
	sp := r.tr.begin("serve.encode")
	data, err := json.MarshalIndent(build(), "", "  ")
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	r.n.respBytes += int64(len(data))
	return data, nil
}

func (r *replica) get(m *uarch.Machine, w trace.Spec) (*sim.Result, bool, error) {
	sp := r.tr.begin("runstore.get")
	res, ok, err := r.store.GetResult(runstore.SimKey(m, w))
	r.tr.end(sp)
	if ok {
		r.n.storeHits++
	} else {
		r.n.storeMisses++
	}
	return res, ok, err
}

func (r *replica) put(m *uarch.Machine, w trace.Spec, res *sim.Result) error {
	sp := r.tr.begin("runstore.put")
	defer r.tr.end(sp)
	return r.store.PutResult(runstore.SimKey(m, w), res)
}

func (r *replica) materialize(w trace.Spec) (*trace.Buffer, error) {
	sp := r.tr.begin("trace.materialize")
	buf, err := trace.MaterializeSpecInto(w, r.spare)
	r.tr.end(sp)
	r.spare = nil
	if err != nil {
		return nil, err
	}
	r.n.traceGens++
	r.n.genOps += int64(buf.NumOps())
	return buf, nil
}

func (r *replica) newSim(m *uarch.Machine) (*sim.Simulator, error) {
	sp := r.tr.begin("sim.new")
	defer r.tr.end(sp)
	return sim.New(m)
}

func (r *replica) run(s *sim.Simulator, src trace.Source, w trace.Spec) (*sim.Result, error) {
	sp := r.tr.begin("sim.run")
	res, err := s.Run(src)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("simulate %s on %s: %w", w.Name, s.Machine().Name, err)
	}
	r.n.simulated++
	r.n.simOps += int64(w.NumOps)
	return res, nil
}

// stackEntries is the wire form of a CPI stack, in stack order.
func stackEntries(st sim.Stack) []serve.StackEntry {
	out := make([]serve.StackEntry, 0, sim.NumComponents)
	for _, c := range sim.Components() {
		out = append(out, serve.StackEntry{Component: c.String(), CPI: st.Cycles[c]})
	}
	return out
}
