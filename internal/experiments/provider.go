package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// Provider serves fitted mechanistic-empirical models on demand — the
// concurrent, long-lived counterpart to the batch Lab, and the engine
// behind the mecpid daemon. Fitted models are cached content-addressed
// on (machine configuration hash, suite, fit options). The configuration
// hash covers the complete machine — the name included, exactly like the
// run store's keys — so a renamed variant is a distinct model even with
// equal parameters, and a variant can never alias its base. Concurrent
// requests for an uncached key are deduplicated singleflight-style —
// exactly one caller simulates and fits (warm-started from the run store
// when one is configured) while the others block on the same result.
// Failed fits are not cached; the next request retries.
//
// The cache only grows: a Fitted entry (model, observations, runs) is a
// few hundred KB, so even thousands of distinct machine×suite keys stay
// cheap next to the simulations they replace.
type Provider struct {
	opts Options

	mu     sync.Mutex
	models map[string]*fitCall
	stats  ProviderStats
}

// ProviderStats counts how the provider sourced its answers, cumulative
// since NewProvider.
type ProviderStats struct {
	// Fits is the number of models actually fitted.
	Fits int
	// ModelHits is the number of Fitted calls served without fitting:
	// from the cache, or by joining an in-flight fit of the same key.
	ModelHits int
	// Sim aggregates run sourcing (store hits vs dispatched simulations)
	// across all fits and sweeps.
	Sim SimStats
}

// Fitted bundles everything the provider derives for one (machine,
// suite) pair. Instances are shared across callers and cached forever:
// treat every field as immutable.
type Fitted struct {
	Machine *uarch.Machine
	Suite   suites.Suite
	Model   *core.Model
	// Obs are the fitting observations, sorted by workload name (the
	// same ordering Lab.Observations uses, so fits are bit-identical).
	Obs []core.Observation
	// Runs holds the underlying simulations by workload name.
	Runs map[string]*sim.Result
}

// Observation returns the named workload's fitting observation.
func (f *Fitted) Observation(workload string) (*core.Observation, error) {
	for i := range f.Obs {
		if f.Obs[i].Name == workload {
			return &f.Obs[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: workload %q not in suite %s", workload, f.Suite.Name)
}

// fitCall is one singleflight slot: the winner closes done after filling
// res/err, and every later caller for the same key blocks on done.
type fitCall struct {
	done chan struct{}
	res  *Fitted
	err  error
}

// NewProvider builds a provider with the given options (defaults applied
// as in Lab). The provider is safe for concurrent use.
func NewProvider(opts Options) *Provider {
	return &Provider{opts: opts.withDefaults(), models: map[string]*fitCall{}}
}

// Opts returns the provider's resolved options.
func (p *Provider) Opts() Options { return p.opts }

// Stats returns a snapshot of the provider counters.
func (p *Provider) Stats() ProviderStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// CachedModels returns the number of model-cache entries, in-flight fits
// included.
func (p *Provider) CachedModels() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.models)
}

// key content-addresses one fitted model: everything that determines its
// value — the complete machine configuration, the suite, and the fit
// options (ops and seedbase are part of the suite instantiation; starts
// and seed drive the regression restarts).
func (p *Provider) key(m *uarch.Machine, suiteName string, opts Options) string {
	return fmt.Sprintf("%s\n%s\nops=%d starts=%d seed=%d seedbase=%d",
		m.ConfigHash(), suiteName, opts.NumOps, opts.FitStarts, opts.Seed, opts.SeedBase)
}

// Fitted returns the fitted model (plus its observations and runs) for
// the machine on the named suite, simulating and fitting at most once
// per distinct key no matter how many callers ask concurrently.
func (p *Provider) Fitted(m *uarch.Machine, suiteName string) (*Fitted, error) {
	f, _, err := p.fittedWith(m, suiteName, p.opts)
	return f, err
}

// fittedWith is Fitted parametrized by fit options — the seeds path
// varies Seed/SeedBase per replication while sharing the provider's
// model cache, since the key covers the options. The returned SimStats
// are this call's alone: a cache or singleflight join reports zeros,
// which is how warm seeds reruns can prove "simulated": 0 end to end.
func (p *Provider) fittedWith(m *uarch.Machine, suiteName string, opts Options) (*Fitted, SimStats, error) {
	key := p.key(m, suiteName, opts)
	p.mu.Lock()
	if c, ok := p.models[key]; ok {
		p.mu.Unlock()
		<-c.done
		// Only a successful join is a hit: callers that waited on a fit
		// which then failed were served an error, not a cached model.
		if c.err == nil {
			p.mu.Lock()
			p.stats.ModelHits++
			p.mu.Unlock()
		}
		return c.res, SimStats{}, c.err
	}
	c := &fitCall{done: make(chan struct{})}
	p.models[key] = c
	p.mu.Unlock()

	// The completion runs deferred so a panic inside the fit (and the
	// simulator under it) cannot poison the key: waiters are released
	// with an error, the slot is freed for a retry, and the panic then
	// propagates to this caller.
	defer func() {
		if c.res == nil && c.err == nil {
			c.err = fmt.Errorf("experiments: fit for %s on %s panicked", suiteName, m.Name)
		}
		p.mu.Lock()
		if c.err != nil {
			delete(p.models, key) // failed fits retry on the next request
		} else {
			p.stats.Fits++
		}
		p.mu.Unlock()
		close(c.done)
	}()
	var st SimStats
	c.res, st, c.err = p.fit(m, suiteName, opts)
	p.addSimStats(st)
	return c.res, st, c.err
}

// fit simulates the suite on the machine (through the run store when
// configured) and fits the model, via the same runSimJobs /
// observationsFor / fitModel path Lab uses. The caller accounts the
// returned SimStats.
func (p *Provider) fit(m *uarch.Machine, suiteName string, opts Options) (*Fitted, SimStats, error) {
	if err := m.Validate(); err != nil {
		return nil, SimStats{}, err
	}
	suite, err := suites.ByName(suiteName, suites.Options{NumOps: opts.NumOps, SeedBase: opts.SeedBase})
	if err != nil {
		return nil, SimStats{}, err
	}
	jobs := make([]simJob, 0, len(suite.Workloads))
	for _, w := range suite.Workloads {
		jobs = append(jobs, simJob{machine: m, spec: w,
			run: RunKey{Machine: m.Name, Suite: suiteName, Workload: w.Name}})
	}
	runs := make(map[string]*sim.Result, len(jobs))
	st, err := runSimJobs(context.Background(), jobs, opts, func(rk RunKey, r *sim.Result) {
		runs[rk.Workload] = r
	})
	if err != nil {
		return nil, st, err
	}
	obs, err := observationsFor(m.Name, suite, func(workload string) (*sim.Result, error) {
		r, ok := runs[workload]
		if !ok {
			return nil, fmt.Errorf("experiments: missing run for %s/%s on %s", suiteName, workload, m.Name)
		}
		return r, nil
	})
	if err != nil {
		return nil, st, err
	}
	model, err := fitModel(m, obs, opts)
	if err != nil {
		return nil, st, err
	}
	return &Fitted{Machine: m, Suite: suite, Model: model, Obs: obs, Runs: runs}, st, nil
}

// Plan runs a multi-axis exploration plan through the provider: the
// base fit comes from the cached, singleflight-deduplicated Fitted
// path, the grid cells simulate through the same run store (with one
// materialized trace buffer shared per workload across all cells), and
// the per-cell extrapolation is RunPlan's. The returned result's Stats
// cover only this call's cell simulations (the base is served from the
// model cache). Safe for concurrent callers; concurrent plans over the
// same base share the fit but may race benignly on cell simulations.
// The caller provides an already-validated Plan (NewPlan or
// PlanSpec.Resolve), so a bogus axis or value list never costs a suite
// simulation.
func (p *Provider) Plan(plan *Plan) (*PlanResult, error) {
	f, err := p.Fitted(plan.Base, plan.Suite)
	if err != nil {
		return nil, err
	}
	lab, err := NewCustomLab(plan.Machines, []suites.Suite{f.Suite}, p.opts)
	if err != nil {
		return nil, err
	}
	lab.adopt(plan.Base.Name, plan.Suite, f)
	if err := lab.Simulate(); err != nil {
		p.addSimStats(lab.SimStats())
		return nil, err
	}
	p.addSimStats(lab.SimStats())
	return planResult(lab, plan, f.Model)
}

// Optimize searches a design-space grid through the provider: the base
// fit comes from the cached, singleflight-deduplicated Fitted path, and
// every probe simulates through the same run store. The returned
// result's Stats cover only this call's probe simulations (the base is
// served from the model cache). Safe for concurrent callers.
func (p *Provider) Optimize(o *Optimize) (*OptimizeResult, error) {
	return p.OptimizeContext(context.Background(), o, nil)
}

// OptimizeContext is Optimize with cancellation and a probe hook (see
// RunOptimizeContext). Note the base fit itself joins the singleflight
// path and is not cancellable; only the probe phase observes ctx.
func (p *Provider) OptimizeContext(ctx context.Context, o *Optimize, onProbe func(done int)) (*OptimizeResult, error) {
	f, err := p.Fitted(o.Plan.Base, o.Plan.Suite)
	if err != nil {
		return nil, err
	}
	res, st, err := runOptimize(ctx, o, f, p.opts, onProbe)
	p.addSimStats(st)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Sweep runs a one-axis sensitivity sweep through the provider: the
// already-validated one-axis plan (SweepSpec.Resolve) runs through Plan
// and is projected into the sweep shape, exactly as RunSweep adapts
// RunPlan, so daemon and CLI sweeps stay bit-identical.
func (p *Provider) Sweep(plan *Plan) (*SweepResult, error) {
	res, err := p.Plan(plan)
	if err != nil {
		return nil, err
	}
	return sweepFromPlan(res)
}

func (p *Provider) addSimStats(st SimStats) {
	p.mu.Lock()
	p.stats.Sim.Hits += st.Hits
	p.stats.Sim.Simulated += st.Simulated
	p.stats.Sim.TraceGens += st.TraceGens
	p.mu.Unlock()
}
