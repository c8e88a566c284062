package experiments

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// Job kinds: a declarative campaign (machines × suites, the
// cmd/experiments grid), a one-axis sensitivity sweep (the cmd/sweep
// experiment), a multi-axis exploration plan (the crossed grid of
// derived machines behind POST /v1/plan and cmd/sweep's grid mode), a
// design-space optimization (the searched grid behind POST /v1/optimize
// and cmd/sweep's -optimize mode), or a seed-sweep campaign (the
// replication sweep behind POST /v1/seeds and cmd/sweep's -seeds mode).
const (
	JobKindCampaign = "campaign"
	JobKindSweep    = "sweep"
	JobKindPlan     = "plan"
	JobKindOptimize = "optimize"
	JobKindSeeds    = "seeds"
)

// JobState is a job's lifecycle position. Jobs move
// queued → running → one of the terminal states (done, failed,
// cancelled); a queued job cancelled before a worker picks it up goes
// straight to cancelled.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobSpec is the submitted description of an asynchronous job: the kind
// plus exactly one matching payload. It is the JSON schema of the
// POST /v1/jobs body.
//
// A campaign job's explicit fit options (ops, fitStarts, seed) win over
// the engine's defaults — a job is fully declarative, unlike
// NewCampaignLab where the caller's explicit options model CLI flags —
// and unset fields inherit the engine's. Sweep and plan jobs always use
// the engine's options, as cmd/sweep's flags do.
type JobSpec struct {
	Kind     string        `json:"kind"`
	Campaign *Campaign     `json:"campaign,omitempty"`
	Sweep    *SweepSpec    `json:"sweep,omitempty"`
	Plan     *PlanSpec     `json:"plan,omitempty"`
	Optimize *OptimizeSpec `json:"optimize,omitempty"`
	Seeds    *SeedsSpec    `json:"seeds,omitempty"`
}

// JobProgress counts a job's simulation runs. Counters only ever
// increase; DoneRuns == StoreHits + Simulated, and a finished
// campaign/sweep/plan job that ran to completion has
// DoneRuns == TotalRuns. For an optimize job TotalRuns is the search's
// upper bound (exhaustive enumeration plus any reduced-fidelity
// screens): finishing with DoneRuns well below it is the searched-grid
// saving, and the probe counters — full-fidelity cells evaluated, out
// of the search's probe bound — are the meaningful completion gauge.
// Grid jobs (plan, and sweep as a one-axis plan) additionally report
// grid-cell completion: a cell is done once every workload of its
// derived machine has a run (the base fit point counts as a cell too). Seeds jobs report replication
// completion: a seed is done once every (machine, suite) cell of that
// replication is simulated and fitted. Cell, probe and seed counters
// stay zero for the kinds they don't apply to.
type JobProgress struct {
	TotalRuns   int `json:"totalRuns"`
	DoneRuns    int `json:"doneRuns"`
	StoreHits   int `json:"storeHits"`
	Simulated   int `json:"simulated"`
	TotalCells  int `json:"totalCells,omitempty"`
	DoneCells   int `json:"doneCells,omitempty"`
	TotalProbes int `json:"totalProbes,omitempty"`
	DoneProbes  int `json:"doneProbes,omitempty"`
	TotalSeeds  int `json:"totalSeeds,omitempty"`
	DoneSeeds   int `json:"doneSeeds,omitempty"`
}

// JobStatus is an immutable snapshot of one job: what the GET /v1/jobs
// endpoints serve and what terminal-state artifacts persist. Result is
// set only in state done: the kind's wire result — a CampaignJobResult,
// SweepReport, PlanReport, OptimizeReport or SeedsReport.
type JobStatus struct {
	ID        string          `json:"id"`
	Kind      string          `json:"kind"`
	State     JobState        `json:"state"`
	Spec      JobSpec         `json:"spec"`
	Progress  JobProgress     `json:"progress"`
	Error     string          `json:"error,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// WorkloadCPI is one workload's measured vs model-predicted CPI. RelErr
// is signed (negative = the model under-predicts), matching the serving
// wire convention.
type WorkloadCPI struct {
	Workload     string  `json:"workload"`
	MeasuredCPI  float64 `json:"measuredCPI"`
	PredictedCPI float64 `json:"predictedCPI"`
	RelErr       float64 `json:"relErr"`
}

// CampaignModelResult is one fitted (machine, suite) cell of a campaign
// job: the fitted parameters, every workload's prediction, and the
// suite-wide accuracy aggregates (error magnitudes).
type CampaignModelResult struct {
	Machine        string        `json:"machine"`
	ConfigHash     string        `json:"configHash"`
	Suite          string        `json:"suite"`
	Params         core.Params   `json:"params"`
	Workloads      []WorkloadCPI `json:"workloads"`
	AvgRelErr      float64       `json:"avgRelErr"`
	MaxRelErr      float64       `json:"maxRelErr"`
	FracBelow20Pct float64       `json:"fracBelow20pct"`
}

// CampaignJobResult is a campaign job's terminal result: one fitted
// model per machine × suite, in campaign order. The numbers are
// bit-identical to what the equivalent blocking cmd/experiments run
// computes — both paths share Lab.Simulate, observationsFor and
// fitModel.
type CampaignJobResult struct {
	Ops       int                   `json:"ops"`
	FitStarts int                   `json:"fitStarts"`
	Seed      uint64                `json:"seed"`
	Models    []CampaignModelResult `json:"models"`
}

// Backpressure sentinels: Submit failures that are about the engine's
// state, not the spec. Callers (the HTTP layer) match with errors.Is to
// answer 503-retry-later instead of 400 — never by error text, which a
// submitted machine or suite name could collide with.
var (
	// ErrJobQueueFull reports a backlog at its QueueDepth bound.
	ErrJobQueueFull = errors.New("experiments: job queue full")
	// ErrJobsDraining reports an engine that is shutting down.
	ErrJobsDraining = errors.New("experiments: job engine is draining, not accepting jobs")
)

// JobCounts are the engine's lifecycle gauges, as served by /v1/stats.
type JobCounts struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// JobsConfig tunes the Jobs engine.
type JobsConfig struct {
	// Workers is the number of jobs executed concurrently (default 1:
	// each job already parallelizes its simulations across
	// Options.Workers CPU workers, so more job workers oversubscribe).
	Workers int
	// QueueDepth bounds the backlog of unstarted jobs (default 64);
	// Submit fails once it is full.
	QueueDepth int
	// ArtifactDir, when non-empty, is where terminal job states are
	// persisted as <id>.json files (conventionally next to the run
	// store). Empty keeps jobs in memory only.
	ArtifactDir string
	// RetainTerminal bounds how many terminal jobs stay queryable in
	// memory (default 256): a long-running daemon must not grow with
	// every campaign it ever ran. Beyond the bound the oldest terminal
	// jobs are evicted from the API; their artifacts, when configured,
	// remain on disk.
	RetainTerminal int
}

func (c JobsConfig) withDefaults() JobsConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetainTerminal <= 0 {
		c.RetainTerminal = 256
	}
	return c
}

// Jobs executes campaigns, sweeps, plans, optimizations and seed
// sweeps asynchronously: Submit resolves the spec through the job-kind
// table and enqueues it, a bounded worker pool executes through the
// same Lab.Simulate / RunPlan / RunOptimize / RunSeeds entry points the
// blocking CLIs use (so batch and daemon answers stay bit-identical,
// and the run store is shared), per-job progress counters are fed from
// the store-hit/simulated callbacks, Cancel stops a job mid-flight via
// context cancellation, and terminal states are persisted as JSON
// artifacts. Safe for concurrent use.
type Jobs struct {
	opts Options
	cfg  JobsConfig

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	closed bool

	queue chan *job
	wg    sync.WaitGroup
}

// job is the engine's mutable record; all fields past the immutable
// header are guarded by Jobs.mu.
type job struct {
	id        string
	spec      JobSpec
	exec      func(ctx context.Context) (any, error) // the resolved kind's run closure
	submitted time.Time
	ctx       context.Context
	cancel    context.CancelFunc

	state    JobState
	progress JobProgress
	// cellLeft tracks, for a grid job, how many workload runs each grid
	// machine still owes (armed at submission); a machine draining to
	// zero completes a cell. Nil for other kinds.
	cellLeft map[string]int
	err      error
	result   json.RawMessage
	started  time.Time
	finished time.Time
}

// NewJobs builds a job engine executing with the given simulation
// options (defaults applied as in Lab; Store shared with whatever else
// uses it) and starts its workers. Callers must Drain it on shutdown.
func NewJobs(opts Options, cfg JobsConfig) *Jobs {
	cfg = cfg.withDefaults()
	j := &Jobs{
		opts:  opts.withDefaults(),
		cfg:   cfg,
		jobs:  map[string]*job{},
		queue: make(chan *job, cfg.QueueDepth),
	}
	for i := 0; i < j.cfg.Workers; i++ {
		j.wg.Add(1)
		go j.worker()
	}
	return j
}

// newJobID returns a fresh random job identifier. Randomness (rather
// than a counter) keeps artifacts from distinct daemon runs in one
// directory from colliding.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("experiments: job id entropy: %v", err))
	}
	return "job-" + hex.EncodeToString(b[:])
}

// jobKind is one row of the job-kind table: the kind's name, whether a
// spec carries the kind's payload, and its resolve step. Resolve
// validates the payload without running anything and returns the
// progress totals plus the closure a worker runs. opts are the engine's
// options with the run-progress hook bound to the job; set applies a
// progress update under the engine lock.
type jobKind struct {
	name    string
	payload func(*JobSpec) bool
	resolve func(spec *JobSpec, opts Options, set func(func(*JobProgress))) (*resolvedJob, error)
}

// resolvedJob is a validated spec, ready to run.
type resolvedJob struct {
	// progress holds the totals known at submission, so the queued
	// snapshot already reports them.
	progress JobProgress
	// grid lists a grid job's machines, each owing one run per workload;
	// Submit arms the per-cell countdown from it.
	grid []*uarch.Machine
	run  func(ctx context.Context) (any, error)
}

// jobKinds is the job-kind table. Submit, the payload rule and the
// unknown-kind message all derive from it. A sweep, plan, optimize or
// seeds job's result is the report its synchronous endpoint answers
// with; campaigns run only as jobs.
var jobKinds = []jobKind{
	{JobKindCampaign, func(s *JobSpec) bool { return s.Campaign != nil }, resolveCampaignJob},
	{JobKindSweep, func(s *JobSpec) bool { return s.Sweep != nil },
		func(s *JobSpec, opts Options, _ func(func(*JobProgress))) (*resolvedJob, error) {
			plan, err := s.Sweep.Resolve()
			if err != nil {
				return nil, err
			}
			return gridJob(plan, opts, func(res *PlanResult) (any, error) {
				sw, err := sweepFromPlan(res)
				if err != nil {
					return nil, err
				}
				return sw.Report(), nil
			})
		}},
	{JobKindPlan, func(s *JobSpec) bool { return s.Plan != nil },
		func(s *JobSpec, opts Options, _ func(func(*JobProgress))) (*resolvedJob, error) {
			plan, err := s.Plan.Resolve()
			if err != nil {
				return nil, err
			}
			return gridJob(plan, opts, func(res *PlanResult) (any, error) { return res.Report(), nil })
		}},
	{JobKindOptimize, func(s *JobSpec) bool { return s.Optimize != nil },
		func(s *JobSpec, opts Options, set func(func(*JobProgress))) (*resolvedJob, error) {
			o, err := s.Optimize.Resolve()
			if err != nil {
				return nil, err
			}
			workloads, err := suiteWorkloads(o.Plan.Suite)
			if err != nil {
				return nil, err
			}
			// The probe counter is fed by the optimizer's own hook, firing
			// after each full-fidelity probe batch.
			onProbe := func(done int) { set(func(p *JobProgress) { p.DoneProbes = done }) }
			return &resolvedJob{
				progress: JobProgress{TotalRuns: o.runBound(workloads), TotalProbes: o.ProbeBound()},
				run: func(ctx context.Context) (any, error) {
					res, err := RunOptimizeContext(ctx, o, opts, onProbe)
					if err != nil {
						return nil, err
					}
					return res.Report(), nil
				},
			}, nil
		}},
	{JobKindSeeds, func(s *JobSpec) bool { return s.Seeds != nil },
		func(s *JobSpec, opts Options, set func(func(*JobProgress))) (*resolvedJob, error) {
			sw, err := s.Seeds.Resolve()
			if err != nil {
				return nil, err
			}
			// The seed counter is fed by the sweep's own hook, firing after
			// each fully evaluated replication.
			onSeed := func(done int) { set(func(p *JobProgress) { p.DoneSeeds = done }) }
			return &resolvedJob{
				progress: JobProgress{TotalRuns: sw.TotalRuns(), TotalSeeds: len(sw.SeedList)},
				run: func(ctx context.Context) (any, error) {
					res, err := RunSeedsContext(ctx, sw, opts, onSeed)
					if err != nil {
						return nil, err
					}
					return res.Report(), nil
				},
			}, nil
		}},
}

// resolveJob looks the spec's kind up in the table, enforces the payload
// rule — the kind's own payload present and every other absent, so a
// mis-tagged submission fails loudly instead of silently running the
// wrong experiment — and runs the kind's resolve step.
func resolveJob(spec *JobSpec, opts Options, set func(func(*JobProgress))) (*resolvedJob, error) {
	var kind *jobKind
	names := make([]string, len(jobKinds))
	for i := range jobKinds {
		names[i] = strconv.Quote(jobKinds[i].name)
		if jobKinds[i].name == spec.Kind {
			kind = &jobKinds[i]
		}
	}
	if kind == nil {
		return nil, fmt.Errorf("experiments: unknown job kind %q (want %s or %s)",
			spec.Kind, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
	}
	if !kind.payload(spec) {
		return nil, fmt.Errorf("experiments: %s job without a %s payload", spec.Kind, spec.Kind)
	}
	for _, other := range jobKinds {
		if other.name != spec.Kind && other.payload(spec) {
			return nil, fmt.Errorf("experiments: %s job with a %s payload", spec.Kind, other.name)
		}
	}
	return kind.resolve(spec, opts, set)
}

// resolveCampaignJob builds the lab a campaign job executes in. The
// campaign's explicit fit options take precedence over the engine's
// (see JobSpec); zeroing the engine fields makes NewCampaignLab inherit
// the campaign's values.
func resolveCampaignJob(s *JobSpec, opts Options, _ func(func(*JobProgress))) (*resolvedJob, error) {
	c := *s.Campaign
	if c.NumOps > 0 {
		opts.NumOps = 0
	}
	if c.FitStarts > 0 {
		opts.FitStarts = 0
	}
	if c.Seed > 0 {
		opts.Seed = 0
	}
	lab, err := NewCampaignLab(c, opts)
	if err != nil {
		return nil, err
	}
	return &resolvedJob{
		progress: JobProgress{TotalRuns: len(lab.Machines()) * lab.NumWorkloads()},
		run:      func(ctx context.Context) (any, error) { return campaignResult(ctx, lab) },
	}, nil
}

// gridJob resolves a grid job — a plan, or a sweep as its one-axis
// plan — executed exactly as cmd/sweep does (RunPlan over the resolved
// grid). Every grid machine, the base fit point included, owes one run
// per workload; report condenses the executed grid into the job result.
func gridJob(plan *Plan, opts Options, report func(*PlanResult) (any, error)) (*resolvedJob, error) {
	workloads, err := suiteWorkloads(plan.Suite)
	if err != nil {
		return nil, err
	}
	return &resolvedJob{
		progress: JobProgress{TotalRuns: len(plan.Machines) * workloads},
		grid:     plan.Machines,
		run: func(ctx context.Context) (any, error) {
			res, err := RunPlanContext(ctx, plan, opts)
			if err != nil {
				return nil, err
			}
			return report(res)
		},
	}, nil
}

// Submit resolves spec, enqueues it, and returns the queued snapshot.
// It fails fast — without enqueuing — on an invalid spec, a full queue,
// or an engine that is draining.
func (j *Jobs) Submit(spec JobSpec) (JobStatus, error) {
	jb := &job{id: newJobID(), spec: spec, submitted: time.Now().UTC(), state: JobQueued}
	r, err := resolveJob(&jb.spec, j.jobOptions(jb), func(update func(*JobProgress)) {
		j.mu.Lock()
		update(&jb.progress)
		j.mu.Unlock()
	})
	if err != nil {
		return JobStatus{}, err
	}
	jb.exec, jb.progress = r.run, r.progress
	if len(r.grid) > 0 {
		// Cell totals are known at submission, and per-machine countdowns
		// arm cell completion once the progress hook starts firing.
		jb.progress.TotalCells = len(r.grid)
		jb.cellLeft = make(map[string]int, len(r.grid))
		for _, m := range r.grid {
			jb.cellLeft[m.Name] = r.progress.TotalRuns / len(r.grid)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	jb.ctx, jb.cancel = ctx, cancel
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		cancel()
		return JobStatus{}, ErrJobsDraining
	}
	select {
	case j.queue <- jb:
	default:
		j.mu.Unlock()
		cancel()
		return JobStatus{}, fmt.Errorf("%w (%d pending)", ErrJobQueueFull, j.cfg.QueueDepth)
	}
	j.jobs[jb.id] = jb
	j.order = append(j.order, jb.id)
	st := jb.snapshotLocked()
	j.mu.Unlock()
	return st, nil
}

// Get returns a snapshot of the identified job.
func (j *Jobs) Get(id string) (JobStatus, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	jb, ok := j.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return jb.snapshotLocked(), true
}

// List returns snapshots of every job in submission order.
func (j *Jobs) List() []JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JobStatus, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, j.jobs[id].snapshotLocked())
	}
	return out
}

// Counts returns the lifecycle gauges.
func (j *Jobs) Counts() JobCounts {
	j.mu.Lock()
	defer j.mu.Unlock()
	var c JobCounts
	for _, jb := range j.jobs {
		switch jb.state {
		case JobQueued:
			c.Queued++
		case JobRunning:
			c.Running++
		case JobDone:
			c.Done++
		case JobFailed:
			c.Failed++
		case JobCancelled:
			c.Cancelled++
		}
	}
	return c
}

// Cancel cancels the identified job and returns its snapshot. A queued
// job goes terminal immediately; a running job stops dispatching new
// simulations and goes terminal once its worker observes the
// cancellation (poll Get for the transition). Cancelling a job that is
// already terminal is a no-op returning its current state.
func (j *Jobs) Cancel(id string) (JobStatus, bool) {
	j.mu.Lock()
	jb, ok := j.jobs[id]
	if !ok {
		j.mu.Unlock()
		return JobStatus{}, false
	}
	jb.cancel()
	if jb.state == JobQueued {
		j.finishLocked(jb, JobCancelled, nil, nil)
	}
	st := jb.snapshotLocked()
	j.mu.Unlock()
	return st, true
}

// Drain stops accepting new jobs and waits for the queued and running
// ones to finish. When ctx expires first, every remaining job is
// cancelled and Drain waits for the workers to observe that (bounded:
// cancellation stops new simulation dispatch, so a worker returns after
// at most its in-flight simulations). Safe to call more than once.
func (j *Jobs) Drain(ctx context.Context) {
	j.mu.Lock()
	if !j.closed {
		j.closed = true
		close(j.queue)
	}
	j.mu.Unlock()

	done := make(chan struct{})
	go func() {
		j.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		j.cancelAll()
		<-done
	}
}

// cancelAll cancels every non-terminal job.
func (j *Jobs) cancelAll() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, jb := range j.jobs {
		if jb.state.Terminal() {
			continue
		}
		jb.cancel()
		if jb.state == JobQueued {
			j.finishLocked(jb, JobCancelled, nil, nil)
		}
	}
}

func (j *Jobs) worker() {
	defer j.wg.Done()
	for jb := range j.queue {
		j.run(jb)
	}
}

func (j *Jobs) run(jb *job) {
	j.mu.Lock()
	if jb.state != JobQueued { // cancelled while waiting in the queue
		j.mu.Unlock()
		return
	}
	jb.state = JobRunning
	jb.started = time.Now().UTC()
	j.mu.Unlock()

	result, err := jb.exec(jb.ctx)
	var raw json.RawMessage
	if err == nil {
		raw, err = json.Marshal(result)
	}

	j.mu.Lock()
	switch {
	case err == nil:
		// A completed job stays done even if a cancel raced the last
		// simulation: the work exists, hiding it helps nobody.
		j.finishLocked(jb, JobDone, raw, nil)
	case jb.ctx.Err() != nil:
		j.finishLocked(jb, JobCancelled, nil, nil)
	default:
		j.finishLocked(jb, JobFailed, nil, err)
	}
	j.mu.Unlock()
}

// jobOptions returns the engine options with the per-run progress hook
// bound to jb: every completed run advances the run counters and, for a
// grid job, the countdown of the machine's cell.
func (j *Jobs) jobOptions(jb *job) Options {
	opts := j.opts
	opts.Progress = func(run RunKey, hit bool) {
		j.mu.Lock()
		jb.progress.DoneRuns++
		if hit {
			jb.progress.StoreHits++
		} else {
			jb.progress.Simulated++
		}
		if left, ok := jb.cellLeft[run.Machine]; ok {
			if left == 1 {
				delete(jb.cellLeft, run.Machine)
				jb.progress.DoneCells++
			} else {
				jb.cellLeft[run.Machine] = left - 1
			}
		}
		j.mu.Unlock()
	}
	return opts
}

// campaignResult executes a campaign lab exactly as cmd/experiments
// does — Simulate, then Model per (machine, suite) — and condenses the
// fits into the job result.
func campaignResult(ctx context.Context, lab *Lab) (*CampaignJobResult, error) {
	if err := lab.SimulateContext(ctx); err != nil {
		return nil, err
	}
	out := &CampaignJobResult{
		Ops:       lab.opts.NumOps,
		FitStarts: lab.opts.FitStarts,
		Seed:      lab.opts.Seed,
	}
	for _, m := range lab.Machines() {
		for _, suiteName := range lab.SuiteNames() {
			// Fits are not individually cancellable, but a cancelled job
			// stops between them.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			model, err := lab.Model(m.Name, suiteName)
			if err != nil {
				return nil, err
			}
			obs, err := lab.Observations(m.Name, suiteName)
			if err != nil {
				return nil, err
			}
			mr := CampaignModelResult{
				Machine:    m.Name,
				ConfigHash: m.ConfigHash(),
				Suite:      suiteName,
				Params:     model.P,
			}
			errs := make([]float64, 0, len(obs))
			for i := range obs {
				o := &obs[i]
				pred := model.PredictCPI(o.Feat)
				mr.Workloads = append(mr.Workloads, WorkloadCPI{
					Workload:     o.Name,
					MeasuredCPI:  o.MeasuredCPI,
					PredictedCPI: pred,
					RelErr:       (pred - o.MeasuredCPI) / o.MeasuredCPI,
				})
				errs = append(errs, stats.RelErr(pred, o.MeasuredCPI))
			}
			mr.AvgRelErr = stats.Mean(errs)
			mr.MaxRelErr = stats.Max(errs)
			mr.FracBelow20Pct = stats.FractionBelow(errs, 0.20)
			out.Models = append(out.Models, mr)
		}
	}
	return out, nil
}

// finishLocked moves jb to a terminal state and persists its artifact
// before the new state becomes observable (the caller holds j.mu, which
// every snapshot takes): a client that polls a job to completion can
// rely on the artifact already being on disk. The file is a few KB, so
// briefly holding the lock across the write is cheaper than the
// artifact-after-terminal race it removes.
func (j *Jobs) finishLocked(jb *job, state JobState, result json.RawMessage, err error) {
	jb.state = state
	jb.result = result
	jb.err = err
	jb.finished = time.Now().UTC()
	j.persist(jb.snapshotLocked())
	j.pruneLocked()
}

// pruneLocked evicts the oldest terminal jobs beyond the retention
// bound. Caller holds j.mu.
func (j *Jobs) pruneLocked() {
	terminal := 0
	for _, jb := range j.jobs {
		if jb.state.Terminal() {
			terminal++
		}
	}
	excess := terminal - j.cfg.RetainTerminal
	if excess <= 0 {
		return
	}
	kept := j.order[:0]
	for _, id := range j.order {
		if excess > 0 && j.jobs[id].state.Terminal() {
			delete(j.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	j.order = kept
}

// snapshotLocked builds the job's immutable status. Caller holds j.mu.
func (jb *job) snapshotLocked() JobStatus {
	st := JobStatus{
		ID:        jb.id,
		Kind:      jb.spec.Kind,
		State:     jb.state,
		Spec:      jb.spec,
		Progress:  jb.progress,
		Submitted: jb.submitted,
		Result:    jb.result,
	}
	if jb.err != nil {
		st.Error = jb.err.Error()
	}
	if !jb.started.IsZero() {
		t := jb.started
		st.Started = &t
	}
	if !jb.finished.IsZero() {
		t := jb.finished
		st.Finished = &t
	}
	return st
}

// persist writes a terminal snapshot as a JSON artifact under the
// configured directory, with the run store's atomic temp+rename
// discipline so readers never observe a torn file. Persistence is best
// effort: an unwritable artifact directory must not fail the job whose
// result is still served from memory.
func (j *Jobs) persist(st JobStatus) {
	if j.cfg.ArtifactDir == "" || !st.State.Terminal() {
		return
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return
	}
	data = append(data, '\n')
	if err := os.MkdirAll(j.cfg.ArtifactDir, 0o755); err != nil {
		return
	}
	dst := filepath.Join(j.cfg.ArtifactDir, st.ID+".json")
	tmp, err := os.CreateTemp(j.cfg.ArtifactDir, "."+st.ID+".tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
	}
}
