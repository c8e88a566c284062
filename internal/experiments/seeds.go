package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// MaxSeeds bounds a seed sweep's replication count. Each seed costs a
// full campaign simulation plus one fit per (machine, suite) cell, and
// the t-based confidence intervals gain little past a few dozen
// replications, so an accidental "count": 1000000 is rejected eagerly.
const MaxSeeds = 64

// SeedsSpec is the declarative form of a seed-sweep campaign: the JSON
// schema of seeds files, POST /v1/seeds bodies and seeds job payloads.
// The subject grid is either a single base machine × suite (the common
// case) or a whole campaign; the replications are either an explicit
// seed list or a count N standing for seeds 1..N. Exactly one of each
// pair must be set.
//
// A campaign used here must not carry its own fit options (ops,
// fitStarts, seed): the sweep owns the seed axis, and ops/fitStarts
// come from the executing engine's options — the same rule that keeps
// daemon and CLI answers bit-identical for every other kind.
type SeedsSpec struct {
	Base     *MachineSpec `json:"base,omitempty"`
	Suite    string       `json:"suite,omitempty"`
	Campaign *Campaign    `json:"campaign,omitempty"`
	Seeds    []uint64     `json:"seeds,omitempty"`
	Count    int          `json:"count,omitempty"`
}

// ParseSeedsSpec decodes a seeds document with the scenario-file rules:
// unknown fields and trailing data are errors.
func ParseSeedsSpec(data []byte) (SeedsSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec SeedsSpec
	if err := dec.Decode(&spec); err != nil {
		return SeedsSpec{}, fmt.Errorf("experiments: parse seeds: %w", err)
	}
	if dec.More() {
		return SeedsSpec{}, fmt.Errorf("experiments: parse seeds: trailing data after seeds document")
	}
	return spec, nil
}

// LoadSeedsSpec reads and parses a seeds file.
func LoadSeedsSpec(path string) (SeedsSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SeedsSpec{}, fmt.Errorf("experiments: %w", err)
	}
	spec, err := ParseSeedsSpec(data)
	if err != nil {
		return SeedsSpec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return spec, nil
}

// Seeds is a validated, fully resolved seed sweep: the subject machines
// materialized through the uarch registry, the suite names checked
// against the suite registry, and the replication list expanded and
// deduplicated.
type Seeds struct {
	Spec     SeedsSpec
	Machines []*uarch.Machine
	Suites   []string
	SeedList []uint64

	// runsPerMachine is the per-seed workload count of one machine
	// (summed over the suites) — the job engine's run accounting.
	runsPerMachine int
}

// Resolve materializes the spec into a validated Seeds. Everything that
// can be rejected without simulating — unknown machines or suites,
// ambiguous subjects, empty or duplicated seed lists — is rejected
// here, so the serving layer and job engine fail fast.
func (spec SeedsSpec) Resolve() (*Seeds, error) {
	s := &Seeds{Spec: spec}

	switch {
	case spec.Campaign != nil:
		if spec.Base != nil || spec.Suite != "" {
			return nil, fmt.Errorf("experiments: seeds take a base+suite or a campaign, not both")
		}
		c := spec.Campaign
		if c.NumOps != 0 || c.FitStarts != 0 || c.Seed != 0 {
			return nil, fmt.Errorf("experiments: a seeds campaign must not set ops, fitStarts or seed (the sweep owns the seed axis; ops and fitStarts come from the engine options)")
		}
		if len(c.Machines) == 0 {
			return nil, fmt.Errorf("experiments: seeds campaign has no machines")
		}
		if len(c.Suites) == 0 {
			return nil, fmt.Errorf("experiments: seeds campaign has no suites")
		}
		machines, err := c.resolveMachines()
		if err != nil {
			return nil, err
		}
		s.Machines = machines
		seen := map[string]bool{}
		for _, name := range c.Suites {
			if seen[name] {
				return nil, fmt.Errorf("experiments: seeds campaign lists suite %q twice", name)
			}
			seen[name] = true
			s.Suites = append(s.Suites, name)
		}
	case spec.Base != nil:
		if spec.Suite == "" {
			return nil, fmt.Errorf("experiments: seeds with a base need a suite")
		}
		m, err := spec.Base.Resolve()
		if err != nil {
			return nil, err
		}
		s.Machines = []*uarch.Machine{m}
		s.Suites = []string{spec.Suite}
	default:
		return nil, fmt.Errorf("experiments: seeds need a base+suite or a campaign")
	}

	// Suite names are validated through the registry here, and the
	// per-seed workload count is recorded for run accounting.
	for _, name := range s.Suites {
		// Seed sweeps redraw every workload from a shifted seed base,
		// which a recorded trace file cannot do — reject file-backed
		// suites here, before any cell runs, rather than failing on the
		// first non-canonical seed mid-campaign.
		if suites.IsFileBacked(name) {
			return nil, fmt.Errorf("experiments: suite %q is file-backed: recorded traces cannot be re-seeded for a seed sweep", name)
		}
		n, err := suiteWorkloads(name)
		if err != nil {
			return nil, err
		}
		s.runsPerMachine += n
	}

	switch {
	case len(spec.Seeds) > 0 && spec.Count != 0:
		return nil, fmt.Errorf("experiments: seeds take a seed list or a count, not both")
	case len(spec.Seeds) > 0:
		seen := map[uint64]bool{}
		for _, seed := range spec.Seeds {
			if seed == 0 {
				return nil, fmt.Errorf("experiments: seed 0 is reserved (seeds start at 1; seed 1 is the canonical single-seed campaign)")
			}
			if seen[seed] {
				return nil, fmt.Errorf("experiments: seed %d listed twice", seed)
			}
			seen[seed] = true
		}
		s.SeedList = append([]uint64(nil), spec.Seeds...)
	case spec.Count > 0:
		s.SeedList = make([]uint64, spec.Count)
		for i := range s.SeedList {
			s.SeedList[i] = uint64(i + 1)
		}
	case spec.Count < 0:
		return nil, fmt.Errorf("experiments: seeds count must be positive, got %d", spec.Count)
	default:
		return nil, fmt.Errorf("experiments: seeds need a seed list or a count")
	}
	if len(s.SeedList) > MaxSeeds {
		return nil, fmt.Errorf("experiments: %d seeds exceed the limit of %d", len(s.SeedList), MaxSeeds)
	}
	return s, nil
}

// TotalRuns is the simulation-run count a full execution dispatches or
// serves from the store: every seed runs every workload of every suite
// on every machine.
func (s *Seeds) TotalRuns() int {
	return len(s.SeedList) * len(s.Machines) * s.runsPerMachine
}

// seedOptions maps one campaign seed onto the two seed knobs of an
// execution: the fit-restart seed and the workload-generator base.
// Seed s uses SeedBase s-1, so seed 1 (Seed=1, SeedBase=0) is exactly
// the canonical single-seed campaign — a sweep over {1} reproduces
// every existing result bit-identically, and its runs come straight
// from a warm store.
func seedOptions(opts Options, seed uint64) Options {
	opts.Seed = seed
	opts.SeedBase = seed - 1
	return opts
}

// SeedMetric is the across-seed distribution of one scalar: the
// per-seed values (in SeedList order) and their sample statistics. The
// interval is Student-t at 95% over the sample (Bessel-corrected)
// standard deviation; with a single seed no interval exists and the
// bounds collapse to the mean (stats.CI95), keeping every field finite
// for JSON.
type SeedMetric struct {
	PerSeed   []float64 `json:"perSeed"`
	Mean      float64   `json:"mean"`
	SampleStd float64   `json:"sampleStd"`
	CI95Lo    float64   `json:"ci95Lo"`
	CI95Hi    float64   `json:"ci95Hi"`
	Min       float64   `json:"min"`
	Max       float64   `json:"max"`
}

func seedMetric(xs []float64) SeedMetric {
	lo, hi, _ := stats.CI95(xs)
	return SeedMetric{
		PerSeed:   xs,
		Mean:      stats.Mean(xs),
		SampleStd: stats.SampleStdDev(xs),
		CI95Lo:    lo,
		CI95Hi:    hi,
		Min:       stats.Min(xs),
		Max:       stats.Max(xs),
	}
}

// CoeffStability is the across-seed stability of one fitted regression
// parameter. CV is the coefficient of variation SampleStd/|Mean| — the
// scale-free answer to "does this coefficient mean anything, or is the
// fit chasing the workload draw?" — defined 0 when the mean is 0.
type CoeffStability struct {
	Name      string  `json:"name"`
	Mean      float64 `json:"mean"`
	SampleStd float64 `json:"sampleStd"`
	CV        float64 `json:"cv"`
}

func coeffStability(name string, xs []float64) CoeffStability {
	m := stats.Mean(xs)
	sd := stats.SampleStdDev(xs)
	cv := 0.0
	if m != 0 {
		cv = sd / math.Abs(m)
	}
	return CoeffStability{Name: name, Mean: m, SampleStd: sd, CV: cv}
}

// SeedsCell is one (machine, suite) cell of a seeds report: the
// across-seed distributions of the suite-mean measured CPI and of the
// model's mean absolute relative error, plus the fit-stability of every
// mechanistic-empirical coefficient. MaxCoeffCV is the worst CV over
// the coefficients — the single number to watch for a fit whose
// parameters are not seed-stable.
type SeedsCell struct {
	Machine    string           `json:"machine"`
	Suite      string           `json:"suite"`
	CPI        SeedMetric       `json:"cpi"`
	MARE       SeedMetric       `json:"mare"`
	Coeffs     []CoeffStability `json:"coeffs"`
	MaxCoeffCV float64          `json:"maxCoeffCV"`
}

// SeedsReport is the wire form of a SeedsResult — the one JSON shape
// shared by POST /v1/seeds responses, seeds job results and cmd/sweep
// -seeds -json output, so every surface stays byte-comparable.
type SeedsReport struct {
	Seeds     []uint64    `json:"seeds"`
	Ops       int         `json:"ops"`
	FitStarts int         `json:"fitStarts"`
	Machines  []string    `json:"machines"`
	Suites    []string    `json:"suites"`
	Cells     []SeedsCell `json:"cells"`
	Sims      RunSourcing `json:"sims"`
}

// SeedsResult is an executed seed sweep. Cells appear machine-major in
// campaign order (every suite of the first machine, then the second),
// with per-seed values in SeedList order.
type SeedsResult struct {
	Seeds     []uint64
	NumOps    int
	FitStarts int
	Machines  []string
	Suites    []string
	Cells     []SeedsCell

	Stats SimStats
}

// Report flattens the result into its wire form.
func (r *SeedsResult) Report() *SeedsReport {
	return &SeedsReport{
		Seeds:     r.Seeds,
		Ops:       r.NumOps,
		FitStarts: r.FitStarts,
		Machines:  r.Machines,
		Suites:    r.Suites,
		Cells:     r.Cells,
		Sims:      r.Stats.Sourcing(),
	}
}

// Render returns the seeds report as text: one line per (machine,
// suite) cell with mean ± CI for CPI and model error, then the
// least-stable coefficients.
func (r *SeedsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seeds: %d replications %v (%d µops/workload, %d fit starts)\n",
		len(r.Seeds), r.Seeds, r.NumOps, r.FitStarts)
	fmt.Fprintf(&b, "  %-12s %-8s %9s %19s %9s %17s %8s\n",
		"machine", "suite", "mean-CPI", "95% CI", "MARE", "95% CI", "max-CV")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-12s %-8s %9.4f [%8.4f,%8.4f] %8.2f%% [%6.2f%%,%6.2f%%] %7.3f\n",
			c.Machine, c.Suite,
			c.CPI.Mean, c.CPI.CI95Lo, c.CPI.CI95Hi,
			100*c.MARE.Mean, 100*c.MARE.CI95Lo, 100*c.MARE.CI95Hi,
			c.MaxCoeffCV)
	}
	b.WriteString("\ncoefficient stability (CV = sample-std/|mean| across seeds):\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %s/%s:", c.Machine, c.Suite)
		for _, co := range c.Coeffs {
			fmt.Fprintf(&b, " %s=%.3f", co.Name, co.CV)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// seedCellData accumulates one (machine, suite) cell across seeds. All
// per-seed slots are preallocated and written by seed index, so the
// aggregation order is SeedList order no matter which seed's fit
// finishes first — the concurrent and sequential execution paths fill
// identical grids.
type seedCellData struct {
	cpis   []float64
	mares  []float64
	coeffs [][]float64 // per parameter, per seed
}

func newSeedCellGrid(machines, suiteNames, coeffNames, seeds int) [][]seedCellData {
	grid := make([][]seedCellData, machines)
	for mi := range grid {
		grid[mi] = make([]seedCellData, suiteNames)
		for si := range grid[mi] {
			d := &grid[mi][si]
			d.cpis = make([]float64, seeds)
			d.mares = make([]float64, seeds)
			d.coeffs = make([][]float64, coeffNames)
			for ci := range d.coeffs {
				d.coeffs[ci] = make([]float64, seeds)
			}
		}
	}
	return grid
}

func (d *seedCellData) set(seedIdx int, cpi, mare float64, coeffs []float64) {
	d.cpis[seedIdx] = cpi
	d.mares[seedIdx] = mare
	for i, v := range coeffs {
		d.coeffs[i][seedIdx] = v
	}
}

// evalSeedCell reduces one fitted (machine, suite, seed) cell to its
// two scalars: the suite-mean measured CPI and the model's mean
// absolute relative prediction error, both over the fit's own sorted
// observation order — the same numbers every other reporting surface
// derives, so a sweep over seed {1} is bit-identical to them.
func evalSeedCell(model *core.Model, obs []core.Observation) (cpi, mare float64) {
	cpis := make([]float64, 0, len(obs))
	errs := make([]float64, 0, len(obs))
	for i := range obs {
		o := &obs[i]
		cpis = append(cpis, o.MeasuredCPI)
		errs = append(errs, stats.RelErr(model.PredictCPI(o.Feat), o.MeasuredCPI))
	}
	return stats.Mean(cpis), stats.Mean(errs)
}

// seedsResultFrom aggregates the accumulated per-seed cells into the
// result, in the fixed machine-major order both execution paths share —
// the aggregation arithmetic runs in one place, so the blocking and
// provider paths emit per-float identical reports.
func seedsResultFrom(s *Seeds, opts Options, grid [][]seedCellData, st SimStats) *SeedsResult {
	names := core.ParamNames()
	machines := make([]string, len(s.Machines))
	for i, m := range s.Machines {
		machines[i] = m.Name
	}
	res := &SeedsResult{
		Seeds:     s.SeedList,
		NumOps:    opts.NumOps,
		FitStarts: opts.FitStarts,
		Machines:  machines,
		Suites:    s.Suites,
		Stats:     st,
	}
	for mi := range s.Machines {
		for si, suiteName := range s.Suites {
			d := &grid[mi][si]
			cell := SeedsCell{
				Machine: machines[mi],
				Suite:   suiteName,
				CPI:     seedMetric(d.cpis),
				MARE:    seedMetric(d.mares),
			}
			for ci, name := range names {
				co := coeffStability(name, d.coeffs[ci])
				cell.Coeffs = append(cell.Coeffs, co)
				if co.CV > cell.MaxCoeffCV {
					cell.MaxCoeffCV = co.CV
				}
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res
}

// RunSeeds executes the seed sweep standalone, simulating and fitting
// every (machine, suite, seed) cell through opts.Store when configured.
// For a long-running caller that wants the per-seed fits cached and
// deduplicated across sweeps, use Provider.Seeds.
func RunSeeds(s *Seeds, opts Options) (*SeedsResult, error) {
	return RunSeedsContext(context.Background(), s, opts, nil)
}

// RunSeedsContext is RunSeeds with cancellation and a progress hook:
// cancelling ctx stops the dispatch of new simulations (in-flight ones
// finish and land in the store, so a rerun resumes warm) and skips the
// remaining fits, returning ctx.Err(). onSeed, when non-nil, is called
// each time another seed has been fully evaluated, with the cumulative
// seed count (calls are never concurrent). The async Jobs engine runs
// seeds jobs through here.
//
// Replications fan out across the worker pool rather than running one
// lab per seed sequentially: every seed's pending runs join a single
// runSimJobs batch (each job recording into its own seed's lab), and
// the per-cell fits are then dispatched to the same worker bound. The
// report is per-float identical to the sequential execution: run
// results are keyed by (machine, spec, seed base) independent of
// scheduling, each cell's fit consumes only its own seed's
// observations, and the grid is written by seed index, so aggregation
// order never depends on completion order.
func RunSeedsContext(ctx context.Context, s *Seeds, opts Options, onSeed func(done int)) (*SeedsResult, error) {
	opts = opts.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	grid := newSeedCellGrid(len(s.Machines), len(s.Suites), len(core.ParamNames()), len(s.SeedList))

	// One lab per seed — each carries its seed's fit options and
	// accumulates its own runs — but one combined simulation batch, so
	// seeds share the worker pool and the materializer pipeline.
	labs := make([]*Lab, len(s.SeedList))
	var jobs []simJob
	for i, seed := range s.SeedList {
		sopts := seedOptions(opts, seed)
		suiteList := make([]suites.Suite, 0, len(s.Suites))
		for _, name := range s.Suites {
			suite, err := suites.ByName(name, suites.Options{NumOps: sopts.NumOps, SeedBase: sopts.SeedBase})
			if err != nil {
				return nil, err
			}
			suiteList = append(suiteList, suite)
		}
		lab, err := NewCustomLab(s.Machines, suiteList, sopts)
		if err != nil {
			return nil, err
		}
		labs[i] = lab
		jobs = append(jobs, lab.pendingJobs()...)
	}
	st, err := runSimJobs(ctx, jobs, opts, nil)
	if err != nil {
		return nil, err
	}

	// Fit phase: every (seed, machine, suite) cell is independent, so
	// they run concurrently under the same worker bound. onSeed fires
	// under the mutex whenever some seed's last cell completes, keeping
	// the cumulative count monotone and the calls serialized.
	type fitCell struct{ seedIdx, mi, si int }
	cells := make([]fitCell, 0, len(s.SeedList)*len(s.Machines)*len(s.Suites))
	for i := range s.SeedList {
		for mi := range s.Machines {
			for si := range s.Suites {
				cells = append(cells, fitCell{seedIdx: i, mi: mi, si: si})
			}
		}
	}
	var (
		mu        sync.Mutex
		firstErr  error
		doneSeeds int
		remaining = make([]int, len(s.SeedList))
		wg        sync.WaitGroup
	)
	for i := range remaining {
		remaining[i] = len(s.Machines) * len(s.Suites)
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	stopped := func() bool {
		if ctx.Err() != nil {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	workers := opts.Workers
	if workers > len(cells) {
		workers = len(cells)
	}
	cellCh := make(chan fitCell)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cellCh {
				// Fits are not individually cancellable, but a cancelled
				// or failed sweep stops between them.
				if stopped() {
					continue
				}
				m := s.Machines[c.mi]
				suiteName := s.Suites[c.si]
				lab := labs[c.seedIdx]
				obs, err := lab.Observations(m.Name, suiteName)
				if err != nil {
					fail(err)
					continue
				}
				model, err := fitModel(m, obs, seedOptions(opts, s.SeedList[c.seedIdx]))
				if err != nil {
					fail(err)
					continue
				}
				cpi, mare := evalSeedCell(model, obs)
				mu.Lock()
				grid[c.mi][c.si].set(c.seedIdx, cpi, mare, model.P.Slice())
				remaining[c.seedIdx]--
				if remaining[c.seedIdx] == 0 {
					doneSeeds++
					if onSeed != nil {
						onSeed(doneSeeds)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, c := range cells {
		cellCh <- c
	}
	close(cellCh)
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return seedsResultFrom(s, opts, grid, st), nil
}

// Seeds runs a seed sweep through the provider: every (machine, suite,
// seed) cell joins the singleflight-deduplicated model cache — whose
// key covers the seed knobs — so repeated sweeps, overlapping sweeps
// and single-seed requests for the same cells all share fits. The
// returned result's Stats cover only this call's simulations: a sweep
// served entirely from cache (or a warm run store) reports zeros.
// onSeed, when non-nil, is called after each fully evaluated seed with
// the cumulative seed count. The fits themselves are not cancellable
// (they complete for any concurrent joiner); ctx is observed between
// cells.
func (p *Provider) Seeds(ctx context.Context, s *Seeds, onSeed func(done int)) (*SeedsResult, error) {
	grid := newSeedCellGrid(len(s.Machines), len(s.Suites), len(core.ParamNames()), len(s.SeedList))
	var st SimStats
	for i, seed := range s.SeedList {
		sopts := seedOptions(p.opts, seed)
		for mi, m := range s.Machines {
			for si, suiteName := range s.Suites {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				f, fst, err := p.fittedWith(m, suiteName, sopts)
				st.Hits += fst.Hits
				st.Simulated += fst.Simulated
				st.TraceGens += fst.TraceGens
				if err != nil {
					return nil, err
				}
				cpi, mare := evalSeedCell(f.Model, f.Obs)
				grid[mi][si].set(i, cpi, mare, f.Model.P.Slice())
			}
		}
		if onSeed != nil {
			onSeed(i + 1)
		}
	}
	return seedsResultFrom(s, p.opts, grid, st), nil
}
