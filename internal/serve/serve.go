// Package serve implements the HTTP/JSON layer of the mecpid daemon:
// the paper's fitted mechanistic-empirical model, exposed as a
// long-running prediction service. Handlers are thin translations from
// wire requests to the experiments.Provider — the concurrent model
// cache with singleflight fitting — so N identical in-flight predict
// requests cost one simulate+fit, and a warm run store costs zero
// simulations. All responses are JSON; errors come back as a structured
// envelope, {"error": {"code": "<stable-slug>", "message": "..."}} with
// a 4xx/5xx status — clients branch on the code, never on message text.
//
// Endpoints (GET /v1 serves this index over the wire):
//
//	GET    /v1             API discovery: endpoint index, version, capability flags
//	GET    /healthz        liveness + simulator version
//	GET    /v1/machines    registered machine names
//	GET    /v1/suites      registered suites and their workloads
//	GET    /v1/params      registered exploration axes (valid sweep/plan params)
//	POST   /v1/predict     CPI + CPI stack for machine spec(s) × suite[/workload]
//	POST   /v1/sweep       one-axis what-if sweep over a derived machine
//	POST   /v1/plan        multi-axis exploration grid, fitted once and extrapolated per cell
//	POST   /v1/optimize    design-space search (min CPI / min cost / Pareto) over a grid
//	POST   /v1/seeds       multi-seed replication sweep: mean/CI on CPI and model error, fit stability
//	POST   /v1/jobs        submit an async campaign, sweep, plan, optimize or seeds job
//	GET    /v1/jobs        list jobs (submission order)
//	GET    /v1/jobs/{id}   one job's state, progress and result
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	GET    /v1/stats       request, model-cache, simulation, store and job counters
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/uarch"
)

// maxBodyBytes bounds request bodies; predict and sweep requests are a
// few hundred bytes of JSON.
const maxBodyBytes = 1 << 20

// Server translates HTTP requests into provider and job-engine calls.
// Construct with New; all methods are safe for concurrent use.
type Server struct {
	prov      *experiments.Provider
	jobs      *experiments.Jobs
	mux       *http.ServeMux
	endpoints []EndpointInfo

	inflight atomic.Int64
	reqs     struct {
		discovery, healthz, machines, suites, params, predict, sweep, plan, optimize, seeds, stats atomic.Int64
		jobSubmit, jobList, jobGet, jobCancel                                                      atomic.Int64
	}
}

// New builds a server around the given provider and job engine. jobs may
// be nil, in which case the /v1/jobs endpoints answer 503 with code
// jobs_disabled (GET /v1 reports the capability up front).
func New(prov *experiments.Provider, jobs *experiments.Jobs) *Server {
	s := &Server{prov: prov, jobs: jobs, mux: http.NewServeMux()}
	// The route table is registered and served from one place: GET /v1
	// returns exactly what was mounted, so the discovery index can never
	// drift from the mux.
	add := func(method, path, doc string, h http.HandlerFunc) {
		s.mux.HandleFunc(method+" "+path, h)
		s.endpoints = append(s.endpoints, EndpointInfo{Method: method, Path: path, Doc: doc})
	}
	add("GET", "/v1", "API discovery: endpoint index, simulator version, capability flags", s.handleDiscovery)
	add("GET", "/healthz", "liveness + simulator version", s.handleHealthz)
	add("GET", "/v1/machines", "registered machine names", s.handleMachines)
	add("GET", "/v1/suites", "registered suites and their workloads", s.handleSuites)
	add("GET", "/v1/params", "registered exploration axes (valid sweep/plan params)", s.handleParams)
	add("POST", "/v1/predict", "CPI + CPI stack for machine spec(s) × suite[/workload]", s.handlePredict)
	add("POST", "/v1/sweep", "one-axis what-if sweep over a derived machine", s.handleSweep)
	add("POST", "/v1/plan", "multi-axis exploration grid, fitted once and extrapolated per cell", s.handlePlan)
	add("POST", "/v1/optimize", "design-space search (min CPI / min cost / Pareto) over a grid", s.handleOptimize)
	add("POST", "/v1/seeds", "multi-seed replication sweep: mean/CI on CPI and model error, fit stability", s.handleSeeds)
	add("POST", "/v1/jobs", "submit an async campaign, sweep, plan, optimize or seeds job", s.handleJobSubmit)
	add("GET", "/v1/jobs", "list jobs (submission order)", s.handleJobList)
	add("GET", "/v1/jobs/{id}", "one job's state, progress and result", s.handleJobGet)
	add("DELETE", "/v1/jobs/{id}", "cancel a queued or running job", s.handleJobCancel)
	add("GET", "/v1/stats", "request, model-cache, simulation, store and job counters", s.handleStats)
	return s
}

// Handler returns the daemon's root handler: the route mux wrapped with
// the in-flight gauge.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		s.mux.ServeHTTP(w, r)
	})
}

// writeJSON emits v indented, so responses read well from curl and pin
// down a stable golden wire format.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"response encoding failed"}}`,
			http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// Stable error codes, the machine-readable half of the error envelope.
// Codes are API contract: clients branch on them (messages are for
// humans and may change), so existing codes must never be renamed.
const (
	// CodeBadRequest: the request body failed to parse or validate.
	CodeBadRequest = "bad_request"
	// CodeUnknownMachine: a machine name absent from the registry.
	CodeUnknownMachine = "unknown_machine"
	// CodeUnknownSuite: a suite name absent from the registry.
	CodeUnknownSuite = "unknown_suite"
	// CodeUnknownJob: a job ID the engine doesn't know (never existed,
	// or evicted past the retention bound).
	CodeUnknownJob = "unknown_job"
	// CodeJobsDisabled: the daemon runs without a job engine.
	CodeJobsDisabled = "jobs_disabled"
	// CodeQueueFull: job backlog at capacity — retry later.
	CodeQueueFull = "queue_full"
	// CodeJobsDraining: the daemon is shutting down — retry elsewhere.
	CodeJobsDraining = "jobs_draining"
	// CodeInternal: the request was fine; the server failed.
	CodeInternal = "internal"
)

// ErrorBody is the error envelope's payload: a stable machine-readable
// code and a human-readable message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorResponse is the uniform error wire shape:
// {"error": {"code": "...", "message": "..."}}.
type errorResponse struct {
	Error ErrorBody `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorResponse{Error: ErrorBody{Code: code, Message: err.Error()}})
}

// badRequest answers 400, classifying the error into the most specific
// stable code. Classification is by sentinel (errors.Is), never by
// message text, which a submitted machine or suite name could collide
// with.
func badRequest(w http.ResponseWriter, err error) {
	code := CodeBadRequest
	switch {
	case errors.Is(err, uarch.ErrUnknownMachine):
		code = CodeUnknownMachine
	case errors.Is(err, suites.ErrUnknownSuite):
		code = CodeUnknownSuite
	}
	writeError(w, http.StatusBadRequest, code, err)
}

// decodeStrict parses a request body with the same strictness as
// scenario files: unknown fields and trailing documents are errors.
func decodeStrict(r *http.Request, w http.ResponseWriter, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parse request: %w", err)
	}
	if dec.More() {
		return errors.New("parse request: trailing data after JSON document")
	}
	return nil
}

// EndpointInfo describes one mounted route.
type EndpointInfo struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	Doc    string `json:"doc"`
}

// Capabilities flags optional daemon features so clients can probe once
// instead of poking endpoints: Jobs is false when /v1/jobs would answer
// jobs_disabled, Store is false when the daemon simulates without a
// persistent run store.
type Capabilities struct {
	Jobs  bool `json:"jobs"`
	Store bool `json:"store"`
}

// DiscoveryResponse is the GET /v1 body: the versioned API surface, as
// mounted — the endpoint index is built from the same table the router
// serves, so it cannot drift.
type DiscoveryResponse struct {
	SimVersion   string         `json:"simVersion"`
	Endpoints    []EndpointInfo `json:"endpoints"`
	Capabilities Capabilities   `json:"capabilities"`
}

func (s *Server) handleDiscovery(w http.ResponseWriter, r *http.Request) {
	s.reqs.discovery.Add(1)
	writeJSON(w, http.StatusOK, DiscoveryResponse{
		SimVersion: sim.Version,
		Endpoints:  s.endpoints,
		Capabilities: Capabilities{
			Jobs:  s.jobs != nil,
			Store: s.prov.Opts().Store != nil,
		},
	})
}

// HealthzResponse is the GET /healthz body.
type HealthzResponse struct {
	Status     string `json:"status"`
	SimVersion string `json:"simVersion"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.reqs.healthz.Add(1)
	writeJSON(w, http.StatusOK, HealthzResponse{Status: "ok", SimVersion: sim.Version})
}

// MachinesResponse is the GET /v1/machines body.
type MachinesResponse struct {
	Machines []string `json:"machines"`
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	s.reqs.machines.Add(1)
	writeJSON(w, http.StatusOK, MachinesResponse{Machines: uarch.Names()})
}

// SuiteInfo describes one registered suite at the daemon's µop count.
// Source is "builtin" for generated suites and "file" for suites backed
// by imported trace files (registered via -trace-suite); file-backed
// workloads carry recorded streams, so their op counts are fixed by the
// file rather than the daemon's -ops.
type SuiteInfo struct {
	Name      string   `json:"name"`
	Source    string   `json:"source"`
	Workloads []string `json:"workloads"`
}

// SuitesResponse is the GET /v1/suites body.
type SuitesResponse struct {
	Ops    int         `json:"ops"`
	Suites []SuiteInfo `json:"suites"`
}

func (s *Server) handleSuites(w http.ResponseWriter, r *http.Request) {
	s.reqs.suites.Add(1)
	ops := s.prov.Opts().NumOps
	resp := SuitesResponse{Ops: ops}
	for _, name := range suites.Names() {
		suite, err := suites.ByName(name, suites.Options{NumOps: ops})
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		src, err := suites.SuiteSource(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		info := SuiteInfo{Name: name, Source: string(src)}
		for _, wl := range suite.Workloads {
			info.Workloads = append(info.Workloads, wl.Name)
		}
		resp.Suites = append(resp.Suites, info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// ParamInfo describes one registered exploration axis.
type ParamInfo struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

// ParamsResponse is the GET /v1/params body: the axes a sweep or plan
// request may explore, in display order — clients discover valid plan
// axes here instead of hard-coding them.
type ParamsResponse struct {
	Params []ParamInfo `json:"params"`
}

func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	s.reqs.params.Add(1)
	var resp ParamsResponse
	for _, p := range experiments.SweepParams() {
		resp.Params = append(resp.Params, ParamInfo{Name: p.Name, Doc: p.Doc})
	}
	writeJSON(w, http.StatusOK, resp)
}

// PredictRequest asks for CPI predictions of machine specs (registered
// names, or base + overrides exactly as in scenario files) on a suite.
// Exactly one of Machine (the single-machine form, whose response is
// PredictResponse) or Machines (the batch form, answered with
// BatchPredictResponse, machines in request order) must be set. With
// Workload set, responses carry that workload alone; otherwise every
// workload plus the suite-wide accuracy.
type PredictRequest struct {
	Machine  *experiments.MachineSpec  `json:"machine,omitempty"`
	Machines []experiments.MachineSpec `json:"machines,omitempty"`
	Suite    string                    `json:"suite"`
	Workload string                    `json:"workload,omitempty"`
}

// StackEntry is one CPI-stack component, in stack order (base first).
type StackEntry = experiments.StackCPI

// WorkloadPrediction is the model's answer for one workload: measured
// (counter-derived) CPI, the model's prediction, and the predicted
// per-component CPI stack — the paper's headline deliverable, over HTTP.
// RelErr is signed — negative means the model under-predicts — the
// convention every relErr field on this wire follows; the accuracy
// aggregates are magnitudes.
type WorkloadPrediction struct {
	Workload     string       `json:"workload"`
	MeasuredCPI  float64      `json:"measuredCPI"`
	PredictedCPI float64      `json:"predictedCPI"`
	RelErr       float64      `json:"relErr"`
	Stack        []StackEntry `json:"stack"`
}

// SuiteAccuracy summarizes suite-wide model error, as cmd/mecpi prints.
type SuiteAccuracy struct {
	AvgRelErr      float64 `json:"avgRelErr"`
	MaxRelErr      float64 `json:"maxRelErr"`
	FracBelow20Pct float64 `json:"fracBelow20pct"`
}

// PredictResponse is the POST /v1/predict body for the single-machine
// request form.
type PredictResponse struct {
	Machine    string               `json:"machine"`
	ConfigHash string               `json:"configHash"`
	Suite      string               `json:"suite"`
	Ops        int                  `json:"ops"`
	FitStarts  int                  `json:"fitStarts"`
	Seed       uint64               `json:"seed"`
	Params     core.Params          `json:"params"`
	Workloads  []WorkloadPrediction `json:"workloads"`
	Accuracy   *SuiteAccuracy       `json:"accuracy,omitempty"`
}

// MachinePrediction is one machine's slice of a batch predict response:
// PredictResponse with the request-wide fields (suite, fit options)
// hoisted to the batch envelope.
type MachinePrediction struct {
	Machine    string               `json:"machine"`
	ConfigHash string               `json:"configHash"`
	Params     core.Params          `json:"params"`
	Workloads  []WorkloadPrediction `json:"workloads"`
	Accuracy   *SuiteAccuracy       `json:"accuracy,omitempty"`
}

// BatchPredictResponse is the POST /v1/predict body for the batch
// request form, machines in request order.
type BatchPredictResponse struct {
	Suite     string              `json:"suite"`
	Ops       int                 `json:"ops"`
	FitStarts int                 `json:"fitStarts"`
	Seed      uint64              `json:"seed"`
	Machines  []MachinePrediction `json:"machines"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.reqs.predict.Add(1)
	var req PredictRequest
	if err := decodeStrict(r, w, &req); err != nil {
		badRequest(w, err)
		return
	}
	if (req.Machine == nil) == (len(req.Machines) == 0) {
		badRequest(w, errors.New("predict request needs exactly one of machine or machines"))
		return
	}
	specs := req.Machines
	if req.Machine != nil {
		specs = []experiments.MachineSpec{*req.Machine}
	}
	// Resolve every machine before fitting any: a typo in the last spec
	// of a batch must not cost the fits of the first.
	machines := make([]*uarch.Machine, 0, len(specs))
	for _, spec := range specs {
		m, err := spec.Resolve()
		if err != nil {
			badRequest(w, err)
			return
		}
		machines = append(machines, m)
	}
	suite, err := suites.ByName(req.Suite, suites.Options{NumOps: s.prov.Opts().NumOps})
	if err != nil {
		badRequest(w, err)
		return
	}
	// Reject a typoed workload before the expensive simulate+fit, not
	// after: the suite listing is already in hand.
	if req.Workload != "" {
		found := false
		for _, wl := range suite.Workloads {
			if wl.Name == req.Workload {
				found = true
				break
			}
		}
		if !found {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("workload %q not in suite %s", req.Workload, suite.Name))
			return
		}
	}
	preds := make([]MachinePrediction, 0, len(machines))
	for _, m := range machines {
		f, err := s.prov.Fitted(m, req.Suite)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
			return
		}
		mp, err := predictMachine(f, req.Workload)
		if err != nil {
			badRequest(w, err)
			return
		}
		preds = append(preds, mp)
	}
	opts := s.prov.Opts()
	if req.Machine != nil {
		// The single-machine form keeps its original flat wire shape.
		mp := preds[0]
		writeJSON(w, http.StatusOK, PredictResponse{
			Machine:    mp.Machine,
			ConfigHash: mp.ConfigHash,
			Suite:      req.Suite,
			Ops:        opts.NumOps,
			FitStarts:  opts.FitStarts,
			Seed:       opts.Seed,
			Params:     mp.Params,
			Workloads:  mp.Workloads,
			Accuracy:   mp.Accuracy,
		})
		return
	}
	writeJSON(w, http.StatusOK, BatchPredictResponse{
		Suite:     req.Suite,
		Ops:       opts.NumOps,
		FitStarts: opts.FitStarts,
		Seed:      opts.Seed,
		Machines:  preds,
	})
}

// predictMachine condenses one fitted model into its wire slice: every
// workload (or the one requested) predicted, plus suite-wide accuracy
// for the whole-suite form.
func predictMachine(f *experiments.Fitted, workload string) (MachinePrediction, error) {
	mp := MachinePrediction{
		Machine:    f.Machine.Name,
		ConfigHash: f.Machine.ConfigHash(),
		Params:     f.Model.P,
	}
	if workload != "" {
		o, err := f.Observation(workload)
		if err != nil {
			return MachinePrediction{}, err
		}
		mp.Workloads = []WorkloadPrediction{predictWorkload(f.Model, o)}
		return mp, nil
	}
	errs := make([]float64, 0, len(f.Obs))
	for i := range f.Obs {
		wp := predictWorkload(f.Model, &f.Obs[i])
		mp.Workloads = append(mp.Workloads, wp)
		errs = append(errs, stats.RelErr(wp.PredictedCPI, wp.MeasuredCPI))
	}
	mp.Accuracy = &SuiteAccuracy{
		AvgRelErr:      stats.Mean(errs),
		MaxRelErr:      stats.Max(errs),
		FracBelow20Pct: stats.FractionBelow(errs, 0.20),
	}
	return mp, nil
}

func predictWorkload(m *core.Model, o *core.Observation) WorkloadPrediction {
	pred := m.PredictCPI(o.Feat)
	return WorkloadPrediction{
		Workload:     o.Name,
		MeasuredCPI:  o.MeasuredCPI,
		PredictedCPI: pred,
		RelErr:       (pred - o.MeasuredCPI) / o.MeasuredCPI,
		Stack:        experiments.StackCPIs(m.Stack(o.Feat)),
	}
}

// serveOp is the one path every synchronous grid operation (sweep,
// plan, optimize, seeds) takes: strict-decode the request, resolve it —
// every validation, before anything simulates, so a bad request answers
// 400 and costs nothing — then run it through the provider and answer
// with the operation's report.
func serveOp[Req, Op any](w http.ResponseWriter, r *http.Request, resolve func(*Req) (Op, error), run func(Op) (any, error)) {
	var req Req
	if err := decodeStrict(r, w, &req); err != nil {
		badRequest(w, err)
		return
	}
	op, err := resolve(&req)
	if err != nil {
		badRequest(w, err)
		return
	}
	rep, err := run(op)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// SweepRequest is the POST /v1/sweep body: a one-axis sensitivity
// sweep — the model is fitted at the base machine and extrapolated to
// each derived value.
type SweepRequest = experiments.SweepSpec

// SweepResponse is the POST /v1/sweep body.
type SweepResponse = experiments.SweepReport

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.reqs.sweep.Add(1)
	serveOp(w, r, (*SweepRequest).Resolve, func(p *experiments.Plan) (any, error) {
		res, err := s.prov.Sweep(p)
		if err != nil {
			return nil, err
		}
		return res.Report(), nil
	})
}

// PlanRequest is the POST /v1/plan body: a declarative multi-axis
// exploration plan, strict-decoded with the plan-file rules. The axes
// must name registered params (see GET /v1/params) with positive,
// duplicate-free values.
type PlanRequest = experiments.PlanSpec

// PlanResponse is the POST /v1/plan body: the model fitted once at the
// base machine and extrapolated to every cell of the crossed grid, with
// this plan's run sourcing.
type PlanResponse = experiments.PlanReport

// PlanResponseFrom converts an executed plan into the wire shape: the
// plan's Report, by value. perfbench's replica builds the daemon's
// exact answer offline through it.
func PlanResponseFrom(res *experiments.PlanResult) PlanResponse {
	return *res.Report()
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.reqs.plan.Add(1)
	serveOp(w, r, (*PlanRequest).Resolve, func(p *experiments.Plan) (any, error) {
		res, err := s.prov.Plan(p)
		if err != nil {
			return nil, err
		}
		return res.Report(), nil
	})
}

// OptimizeRequest is the POST /v1/optimize body: a declarative
// design-space search, strict-decoded with the optimize-file rules. See
// experiments.OptimizeSpec for the objective and search knobs.
type OptimizeRequest = experiments.OptimizeSpec

// OptimizeResponse is the POST /v1/optimize body: the search outcome —
// best point or Pareto frontier, probe accounting, and run sourcing (a
// warm store answers with zero simulations and zero trace generations).
type OptimizeResponse = experiments.OptimizeReport

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.reqs.optimize.Add(1)
	serveOp(w, r, (*OptimizeRequest).Resolve, func(o *experiments.Optimize) (any, error) {
		res, err := s.prov.Optimize(o)
		if err != nil {
			return nil, err
		}
		return res.Report(), nil
	})
}

// SeedsRequest is the POST /v1/seeds body: a declarative seed-sweep
// campaign, strict-decoded with the seeds-file rules. See
// experiments.SeedsSpec for the subject and replication knobs.
type SeedsRequest = experiments.SeedsSpec

// SeedsResponse is the POST /v1/seeds body: per-(machine, suite)
// across-seed distributions — mean, sample standard deviation and
// Student-t 95% CI on CPI and model error, plus per-coefficient fit
// stability — and run sourcing (a warm store and model cache answer
// with zero simulations and zero trace generations).
type SeedsResponse = experiments.SeedsReport

func (s *Server) handleSeeds(w http.ResponseWriter, r *http.Request) {
	s.reqs.seeds.Add(1)
	serveOp(w, r, (*SeedsRequest).Resolve, func(sw *experiments.Seeds) (any, error) {
		res, err := s.prov.Seeds(r.Context(), sw, nil)
		if err != nil {
			return nil, err
		}
		return res.Report(), nil
	})
}

// JobSubmitRequest is the POST /v1/jobs body: a job spec, strict-decoded
// with exactly the scenario-file rules (unknown fields are errors, down
// into the nested campaign).
type JobSubmitRequest = experiments.JobSpec

// JobListResponse is the GET /v1/jobs body, in submission order.
type JobListResponse struct {
	Jobs []experiments.JobStatus `json:"jobs"`
}

// jobsEnabled answers 503 and returns false when no job engine is
// configured.
func (s *Server) jobsEnabled(w http.ResponseWriter) bool {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, CodeJobsDisabled,
			errors.New("job engine not configured"))
		return false
	}
	return true
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.reqs.jobSubmit.Add(1)
	if !s.jobsEnabled(w) {
		return
	}
	var req JobSubmitRequest
	if err := decodeStrict(r, w, &req); err != nil {
		badRequest(w, err)
		return
	}
	st, err := s.jobs.Submit(req)
	if err != nil {
		// A full queue or a draining engine is backpressure, not a bad
		// request.
		switch {
		case errors.Is(err, experiments.ErrJobQueueFull):
			writeError(w, http.StatusServiceUnavailable, CodeQueueFull, err)
		case errors.Is(err, experiments.ErrJobsDraining):
			writeError(w, http.StatusServiceUnavailable, CodeJobsDraining, err)
		default:
			badRequest(w, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.reqs.jobList.Add(1)
	if !s.jobsEnabled(w) {
		return
	}
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobs.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.reqs.jobGet.Add(1)
	if !s.jobsEnabled(w) {
		return
	}
	st, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownJob,
			fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.reqs.jobCancel.Add(1)
	if !s.jobsEnabled(w) {
		return
	}
	st, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownJob,
			fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	// Cancelling a terminal job is an idempotent no-op; the snapshot
	// tells the caller what actually happened either way.
	writeJSON(w, http.StatusOK, st)
}

// RequestStats counts handled requests per endpoint.
type RequestStats struct {
	Discovery int64 `json:"discovery"`
	Healthz   int64 `json:"healthz"`
	Machines  int64 `json:"machines"`
	Suites    int64 `json:"suites"`
	Params    int64 `json:"params"`
	Predict   int64 `json:"predict"`
	Sweep     int64 `json:"sweep"`
	Plan      int64 `json:"plan"`
	Optimize  int64 `json:"optimize"`
	Seeds     int64 `json:"seeds"`
	JobSubmit int64 `json:"jobSubmit"`
	JobList   int64 `json:"jobList"`
	JobGet    int64 `json:"jobGet"`
	JobCancel int64 `json:"jobCancel"`
	Stats     int64 `json:"stats"`
}

// ModelStats reports the provider's model cache.
type ModelStats struct {
	Cached int `json:"cached"`
	Fits   int `json:"fits"`
	Hits   int `json:"hits"`
}

// SimSourcing reports where simulation runs came from, and how many
// µop streams were actually generated to serve them.
type SimSourcing = experiments.RunSourcing

// StoreStats mirrors the run store's counters (present only when the
// daemon runs with a store).
type StoreStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
}

// StatsResponse is the GET /v1/stats body. Jobs is present only when the
// daemon runs a job engine; Sims covers the provider's synchronous
// requests only — each job carries its own progress counters.
type StatsResponse struct {
	Inflight int64                  `json:"inflight"`
	Requests RequestStats           `json:"requests"`
	Models   ModelStats             `json:"models"`
	Sims     SimSourcing            `json:"sims"`
	Store    *StoreStats            `json:"store,omitempty"`
	Jobs     *experiments.JobCounts `json:"jobs,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.reqs.stats.Add(1)
	ps := s.prov.Stats()
	resp := StatsResponse{
		Inflight: s.inflight.Load(),
		Requests: RequestStats{
			Discovery: s.reqs.discovery.Load(),
			Healthz:   s.reqs.healthz.Load(),
			Machines:  s.reqs.machines.Load(),
			Suites:    s.reqs.suites.Load(),
			Params:    s.reqs.params.Load(),
			Predict:   s.reqs.predict.Load(),
			Sweep:     s.reqs.sweep.Load(),
			Plan:      s.reqs.plan.Load(),
			Optimize:  s.reqs.optimize.Load(),
			Seeds:     s.reqs.seeds.Load(),
			JobSubmit: s.reqs.jobSubmit.Load(),
			JobList:   s.reqs.jobList.Load(),
			JobGet:    s.reqs.jobGet.Load(),
			JobCancel: s.reqs.jobCancel.Load(),
			Stats:     s.reqs.stats.Load(),
		},
		Models: ModelStats{Cached: s.prov.CachedModels(), Fits: ps.Fits, Hits: ps.ModelHits},
		Sims:   ps.Sim.Sourcing(),
	}
	if store := s.prov.Opts().Store; store != nil {
		st := store.Stats()
		resp.Store = &StoreStats{Hits: st.Hits, Misses: st.Misses, Puts: st.Puts}
	}
	if s.jobs != nil {
		jc := s.jobs.Counts()
		resp.Jobs = &jc
	}
	writeJSON(w, http.StatusOK, resp)
}
