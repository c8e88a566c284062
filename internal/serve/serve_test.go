package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runstore"
	"repro/internal/uarch"
)

// testOps keeps end-to-end fits fast: the suites still carry their full
// workload populations, each workload just runs few µops.
const testOps = 2000

func newTestServer(t *testing.T, opts experiments.Options) (*httptest.Server, *experiments.Provider) {
	ts, prov, _ := newTestServerJobs(t, opts, experiments.JobsConfig{})
	return ts, prov
}

// newTestServerJobs is newTestServer with control over the job engine's
// configuration; every test server runs one, as the daemon does.
func newTestServerJobs(t *testing.T, opts experiments.Options, cfg experiments.JobsConfig) (*httptest.Server, *experiments.Provider, *experiments.Jobs) {
	t.Helper()
	if opts.NumOps == 0 {
		opts.NumOps = testOps
	}
	if opts.FitStarts == 0 {
		opts.FitStarts = 2
	}
	prov := experiments.NewProvider(opts)
	jobs := experiments.NewJobs(opts, cfg)
	ts := httptest.NewServer(New(prov, jobs).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		jobs.Drain(ctx)
	})
	return ts, prov, jobs
}

// postJSONErr is the goroutine-safe POST helper: no t.Fatal, so it may
// be called off the test goroutine.
func postJSONErr(url, body string) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	code, data, err := postJSONErr(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, data
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHealthzAndListings(t *testing.T) {
	ts, _ := newTestServer(t, experiments.Options{})

	var h HealthzResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.SimVersion == "" {
		t.Errorf("healthz = %+v", h)
	}

	var m MachinesResponse
	getJSON(t, ts.URL+"/v1/machines", &m)
	for _, want := range []string{"pentium4", "core2", "corei7"} {
		found := false
		for _, name := range m.Machines {
			found = found || name == want
		}
		if !found {
			t.Errorf("machines listing missing %q: %v", want, m.Machines)
		}
	}

	var s SuitesResponse
	getJSON(t, ts.URL+"/v1/suites", &s)
	if s.Ops != testOps {
		t.Errorf("suites ops = %d, want %d", s.Ops, testOps)
	}
	names := map[string]int{}
	for _, info := range s.Suites {
		names[info.Name] = len(info.Workloads)
	}
	if names["cpu2000"] != 48 || names["cpu2006"] != 55 {
		t.Errorf("suite workload counts = %v, want cpu2000:48 cpu2006:55", names)
	}
}

// TestConcurrentPredictSingleflight is the singleflight proof: N
// identical concurrent predict requests against a cold daemon must
// produce byte-identical responses and exactly one model fit.
func TestConcurrentPredictSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	ts, _ := newTestServer(t, experiments.Options{})
	req := `{"machine": {"name": "core2"}, "suite": "cpu2000", "workload": "mcf"}`

	const callers = 8
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, err := postJSONErr(ts.URL+"/v1/predict", req)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			if code != http.StatusOK {
				t.Errorf("caller %d: status %d: %s", i, code, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("caller %d got a different response body", i)
		}
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Models.Fits != 1 {
		t.Errorf("%d concurrent predicts fitted %d models, want exactly 1", callers, st.Models.Fits)
	}
	if st.Models.Hits != callers-1 {
		t.Errorf("model hits = %d, want %d", st.Models.Hits, callers-1)
	}
	if st.Requests.Predict != callers {
		t.Errorf("predict request count = %d, want %d", st.Requests.Predict, callers)
	}
	if st.Inflight < 1 {
		t.Errorf("inflight gauge = %d, want >= 1 (the stats request itself)", st.Inflight)
	}
}

// TestPredictMatchesOfflineMecpi asserts the daemon's numbers are
// bit-for-bit the offline cmd/mecpi answer: both run the exact same
// provider path (simulate → sorted observations → fit → predict), and
// Go's JSON float encoding round-trips exactly.
func TestPredictMatchesOfflineMecpi(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	ts, _ := newTestServer(t, experiments.Options{})

	code, body := postJSON(t, ts.URL+"/v1/predict",
		`{"machine": {"name": "core2"}, "suite": "cpu2000"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}

	// The offline path: a fresh provider with the same options, exactly
	// as cmd/mecpi constructs it.
	m, err := uarch.ByName("core2")
	if err != nil {
		t.Fatal(err)
	}
	offline := experiments.NewProvider(experiments.Options{NumOps: testOps, FitStarts: 2})
	f, err := offline.Fitted(m, "cpu2000")
	if err != nil {
		t.Fatal(err)
	}

	if resp.Params != f.Model.P {
		t.Errorf("served params diverged from offline fit:\n  served  %+v\n  offline %+v", resp.Params, f.Model.P)
	}
	if len(resp.Workloads) != len(f.Obs) {
		t.Fatalf("served %d workloads, offline has %d", len(resp.Workloads), len(f.Obs))
	}
	for i, wp := range resp.Workloads {
		o := f.Obs[i]
		if wp.Workload != o.Name {
			t.Fatalf("workload order diverged at %d: %s vs %s", i, wp.Workload, o.Name)
		}
		if math.Float64bits(wp.MeasuredCPI) != math.Float64bits(o.MeasuredCPI) {
			t.Errorf("%s: measured CPI %v != offline %v", o.Name, wp.MeasuredCPI, o.MeasuredCPI)
		}
		want := f.Model.PredictCPI(o.Feat)
		if math.Float64bits(wp.PredictedCPI) != math.Float64bits(want) {
			t.Errorf("%s: predicted CPI %v != offline %v (bit mismatch)", o.Name, wp.PredictedCPI, want)
		}
		stack := f.Model.Stack(o.Feat)
		var sum float64
		for j, e := range wp.Stack {
			if math.Float64bits(e.CPI) != math.Float64bits(stack.Cycles[j]) {
				t.Errorf("%s: stack[%s] %v != offline %v", o.Name, e.Component, e.CPI, stack.Cycles[j])
			}
			sum += e.CPI
		}
		if rel := math.Abs(sum-wp.PredictedCPI) / wp.PredictedCPI; rel > 1e-9 {
			t.Errorf("%s: stack sums to %v, predicted CPI %v", o.Name, sum, wp.PredictedCPI)
		}
	}
}

// TestPredictWarmStoreDispatchesZeroSimulations is the serve-smoke
// assertion as a unit test: against a pre-warmed run store the daemon
// answers without a single simulation.
func TestPredictWarmStoreDispatchesZeroSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmup := experiments.NewProvider(experiments.Options{NumOps: testOps, FitStarts: 2, Store: store})
	m, err := uarch.ByName("core2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warmup.Fitted(m, "cpu2000"); err != nil {
		t.Fatal(err)
	}

	daemonStore, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, experiments.Options{NumOps: testOps, FitStarts: 2, Store: daemonStore})
	code, body := postJSON(t, ts.URL+"/v1/predict",
		`{"machine": {"name": "core2"}, "suite": "cpu2000", "workload": "mcf"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Sims.Simulated != 0 {
		t.Errorf("warm daemon dispatched %d simulations, want 0", st.Sims.Simulated)
	}
	if st.Sims.StoreHits == 0 {
		t.Error("warm daemon should have served runs from the store")
	}
	if st.Store == nil || st.Store.Misses != 0 {
		t.Errorf("warm daemon store stats = %+v, want zero misses", st.Store)
	}
}

func TestSweepEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep is slow")
	}
	ts, _ := newTestServer(t, experiments.Options{})
	code, body := postJSON(t, ts.URL+"/v1/sweep",
		`{"base": {"name": "core2"}, "param": "rob", "values": [48, 96], "suite": "cpu2000"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Base != "core2" || resp.Param != "rob" || len(resp.Points) != 2 {
		t.Errorf("sweep response = %+v", resp)
	}
	for _, p := range resp.Points {
		if p.SimCPI <= 0 || p.ModelCPI <= 0 {
			t.Errorf("point %d has degenerate CPIs: %+v", p.Value, p)
		}
		if len(p.SimStack) == 0 || len(p.ModelStack) == 0 {
			t.Errorf("point %d missing stacks", p.Value)
		}
	}

	// The sweep's base fit lands in the shared model cache: a predict
	// for the same machine and suite must not re-fit.
	code, body = postJSON(t, ts.URL+"/v1/predict",
		`{"machine": {"name": "core2"}, "suite": "cpu2000", "workload": "mcf"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Models.Fits != 1 {
		t.Errorf("sweep+predict fitted %d models, want 1 shared fit", st.Models.Fits)
	}
	if st.Requests.Sweep != 1 {
		t.Errorf("sweep request count = %d, want 1", st.Requests.Sweep)
	}
}

func TestRequestValidation(t *testing.T) {
	ts, _ := newTestServer(t, experiments.Options{})
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantCode         string
		wantErr          string
	}{
		{"malformed JSON", "/v1/predict", `{`, http.StatusBadRequest, CodeBadRequest, "parse request"},
		{"unknown field", "/v1/predict", `{"machine": {"name": "core2"}, "suite": "cpu2000", "typo": 1}`, http.StatusBadRequest, CodeBadRequest, "typo"},
		{"trailing document", "/v1/predict", `{"machine": {"name": "core2"}, "suite": "cpu2000"} {}`, http.StatusBadRequest, CodeBadRequest, "trailing"},
		{"unknown machine", "/v1/predict", `{"machine": {"name": "core9"}, "suite": "cpu2000"}`, http.StatusBadRequest, CodeUnknownMachine, "unknown machine"},
		{"neither machine nor machines", "/v1/predict", `{"suite": "cpu2000"}`, http.StatusBadRequest, CodeBadRequest, "exactly one of machine or machines"},
		{"both machine and machines", "/v1/predict", `{"machine": {"name": "core2"}, "machines": [{"name": "corei7"}], "suite": "cpu2000"}`, http.StatusBadRequest, CodeBadRequest, "exactly one of machine or machines"},
		{"empty machine name", "/v1/predict", `{"machine": {}, "suite": "cpu2000"}`, http.StatusBadRequest, CodeBadRequest, "empty name"},
		{"unknown suite", "/v1/predict", `{"machine": {"name": "core2"}, "suite": "cpu2017"}`, http.StatusBadRequest, CodeUnknownSuite, "unknown suite"},
		{"unknown workload rejected pre-fit", "/v1/predict", `{"machine": {"name": "core2"}, "suite": "cpu2000", "workload": "mfc"}`, http.StatusBadRequest, CodeBadRequest, "not in suite"},
		{"invalid derivation", "/v1/predict", `{"machine": {"name": "x", "base": "core2", "overrides": {"iqSize": 9999}}, "suite": "cpu2000"}`, http.StatusBadRequest, CodeBadRequest, "derive"},
		{"batch with unknown member", "/v1/predict", `{"machines": [{"name": "core2"}, {"name": "core9"}], "suite": "cpu2000"}`, http.StatusBadRequest, CodeUnknownMachine, "unknown machine"},
		{"unknown sweep param", "/v1/sweep", `{"base": {"name": "core2"}, "param": "cores", "values": [2], "suite": "cpu2000"}`, http.StatusBadRequest, CodeBadRequest, "unknown sweep parameter"},
		{"no sweep values", "/v1/sweep", `{"base": {"name": "core2"}, "param": "rob", "values": [], "suite": "cpu2000"}`, http.StatusBadRequest, CodeBadRequest, "at least one value"},
		{"negative sweep value", "/v1/sweep", `{"base": {"name": "core2"}, "param": "rob", "values": [-8], "suite": "cpu2000"}`, http.StatusBadRequest, CodeBadRequest, "must be positive"},
		{"duplicate sweep value", "/v1/sweep", `{"base": {"name": "core2"}, "param": "rob", "values": [64, 64], "suite": "cpu2000"}`, http.StatusBadRequest, CodeBadRequest, "listed twice"},
		{"underivable sweep cell", "/v1/sweep", `{"base": {"name": "core2"}, "param": "l2kb", "values": [3], "suite": "cpu2000"}`, http.StatusBadRequest, CodeBadRequest, "derive"},
		{"optimize unknown objective", "/v1/optimize", `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48, 96]}], "suite": "cpu2000", "objective": {"kind": "max-fun"}}`, http.StatusBadRequest, CodeBadRequest, "unknown objective kind"},
		{"optimize unknown suite", "/v1/optimize", `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48, 96]}], "suite": "cpu2017", "objective": {"kind": "min-cpi"}}`, http.StatusBadRequest, CodeUnknownSuite, "unknown suite"},
		{"optimize unknown base", "/v1/optimize", `{"base": {"name": "core9"}, "axes": [{"param": "rob", "values": [48, 96]}], "suite": "cpu2000", "objective": {"kind": "min-cpi"}}`, http.StatusBadRequest, CodeUnknownMachine, "unknown machine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJSON(t, ts.URL+tc.path, tc.body)
			if code != tc.wantStatus {
				t.Errorf("status %d, want %d (%s)", code, tc.wantStatus, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if e.Error.Code != tc.wantCode {
				t.Errorf("error code %q, want %q", e.Error.Code, tc.wantCode)
			}
			if !strings.Contains(e.Error.Message, tc.wantErr) {
				t.Errorf("error %q should mention %q", e.Error.Message, tc.wantErr)
			}
		})
	}

	// Wrong methods get 405 from the method-scoped mux patterns.
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/predict"},
		{http.MethodGet, "/v1/sweep"},
		{http.MethodPost, "/v1/stats"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestDerivedMachinePredict exercises the base+overrides spec path the
// scenario files use, over the wire.
func TestDerivedMachinePredict(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	ts, _ := newTestServer(t, experiments.Options{})
	code, body := postJSON(t, ts.URL+"/v1/predict",
		`{"machine": {"name": "core2-rob48", "base": "core2", "overrides": {"robSize": 48}}, "suite": "cpu2000", "workload": "mcf"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Machine != "core2-rob48" {
		t.Errorf("machine = %q, want the derived name", resp.Machine)
	}
	base, err := uarch.ByName("core2")
	if err != nil {
		t.Fatal(err)
	}
	if resp.ConfigHash == base.ConfigHash() {
		t.Error("derived machine served with the base machine's config hash")
	}
	if len(resp.Workloads) != 1 || resp.Workloads[0].Workload != "mcf" {
		t.Errorf("workloads = %+v, want just mcf", resp.Workloads)
	}
	if len(resp.Workloads[0].Stack) != 9 {
		t.Errorf("stack has %d components, want 9", len(resp.Workloads[0].Stack))
	}
}

// TestParamsEndpoint asserts the axis-discovery listing mirrors the
// shared param registry, docs included.
func TestParamsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, experiments.Options{})
	var resp ParamsResponse
	getJSON(t, ts.URL+"/v1/params", &resp)
	reg := experiments.SweepParams()
	if len(resp.Params) != len(reg) {
		t.Fatalf("served %d params, registry has %d", len(resp.Params), len(reg))
	}
	for i, p := range resp.Params {
		if p.Name != reg[i].Name || p.Doc != reg[i].Doc {
			t.Errorf("param %d = %+v, want %s (%s)", i, p, reg[i].Name, reg[i].Doc)
		}
	}
}

// TestPlanEndpointValidation asserts every bogus plan request is
// rejected before anything simulates — the wire half of the
// duplicate-values fix included.
func TestPlanEndpointValidation(t *testing.T) {
	ts, prov := newTestServer(t, experiments.Options{})
	cases := []struct {
		name, body, wantCode, wantErr string
	}{
		{"unknown field", `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000", "cores": 2}`, CodeBadRequest, "unknown field"},
		{"unknown axis", `{"base": {"name": "core2"}, "axes": [{"param": "cores", "values": [2]}], "suite": "cpu2000"}`, CodeBadRequest, "unknown sweep parameter"},
		{"duplicate axis", `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48]}, {"param": "rob", "values": [96]}], "suite": "cpu2000"}`, CodeBadRequest, "twice"},
		{"duplicate values", `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64, 64]}], "suite": "cpu2000"}`, CodeBadRequest, "listed twice"},
		{"non-positive value", `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [0]}], "suite": "cpu2000"}`, CodeBadRequest, "positive"},
		{"unknown suite", `{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2017"}`, CodeUnknownSuite, "unknown suite"},
		{"unknown base", `{"base": {"name": "core9"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000"}`, CodeUnknownMachine, "unknown machine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJSON(t, ts.URL+"/v1/plan", tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("status %d, want 400 (%s)", code, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if e.Error.Code != tc.wantCode {
				t.Errorf("error code %q, want %q", e.Error.Code, tc.wantCode)
			}
			if !strings.Contains(e.Error.Message, tc.wantErr) {
				t.Errorf("error %q should mention %q", e.Error.Message, tc.wantErr)
			}
		})
	}
	if st := prov.Stats(); st.Fits != 0 || st.Sim.Simulated != 0 {
		t.Errorf("invalid plan requests cost simulations: %+v", st)
	}
}

// TestPlanEndpointMatchesBlockingRunPlan is the grid flavour of the
// daemon-vs-CLI bit-identity proof: a served 2×2 plan must reproduce
// the blocking RunPlan computation per-float, and its sourcing stats
// must show the shared-trace economics (one generation per workload).
func TestPlanEndpointMatchesBlockingRunPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end grid fit is slow")
	}
	ts, _ := newTestServer(t, experiments.Options{})
	code, body := postJSON(t, ts.URL+"/v1/plan",
		`{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48, 96]}, {"param": "mshrs", "values": [4, 8]}], "suite": "cpu2000"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Base != "core2" || resp.Suite != "cpu2000" || len(resp.Cells) != 4 {
		t.Fatalf("plan response shape: %+v", resp)
	}
	// The response's sourcing covers the 4 grid cells (the base fit is
	// a separate, cached provider fit): 4×48 simulations served by one
	// materialized buffer per workload.
	if resp.Sims.Simulated != 4*48 || resp.Sims.TraceGens != 48 {
		t.Errorf("sourcing %+v, want 192 simulated from 48 trace generations", resp.Sims)
	}

	// Blocking reference: RunPlan with the daemon's options.
	m, err := uarch.ByName("core2")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiments.NewPlan(m, []experiments.PlanAxis{
		{Param: "rob", Values: []int{48, 96}},
		{Param: "mshrs", Values: []int{4, 8}},
	}, "cpu2000")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := experiments.RunPlan(plan, experiments.Options{NumOps: testOps, FitStarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range resp.Cells {
		pt := ref.Points[i]
		if cell.Machine != pt.Machine {
			t.Fatalf("cell %d machine %q vs blocking %q", i, cell.Machine, pt.Machine)
		}
		if math.Float64bits(cell.SimCPI) != math.Float64bits(pt.SimCPI) ||
			math.Float64bits(cell.ModelCPI) != math.Float64bits(pt.ModelCPI) {
			t.Errorf("cell %d CPIs diverge from the blocking run", i)
		}
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Requests.Plan != 1 {
		t.Errorf("plan request count = %d, want 1", st.Requests.Plan)
	}
	// The daemon-wide gauge additionally counts the base fit's 48
	// generations (one suite simulated on one machine, nothing shared).
	if st.Sims.TraceGens != resp.Sims.TraceGens+48 {
		t.Errorf("stats traceGens %d, want %d (cells) + 48 (base fit)",
			st.Sims.TraceGens, resp.Sims.TraceGens)
	}
}

// TestDiscoveryEndpoint asserts GET /v1 reports the full mounted route
// table, the simulator version and the capability flags.
func TestDiscoveryEndpoint(t *testing.T) {
	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, experiments.Options{Store: store})

	var resp DiscoveryResponse
	getJSON(t, ts.URL+"/v1", &resp)
	if resp.SimVersion == "" {
		t.Error("discovery missing simVersion")
	}
	if !resp.Capabilities.Jobs || !resp.Capabilities.Store {
		t.Errorf("capabilities = %+v, want jobs and store on", resp.Capabilities)
	}
	routes := map[string]bool{}
	for _, e := range resp.Endpoints {
		if e.Doc == "" {
			t.Errorf("endpoint %s %s has no doc", e.Method, e.Path)
		}
		routes[e.Method+" "+e.Path] = true
	}
	for _, want := range []string{
		"GET /v1", "GET /healthz", "GET /v1/machines", "GET /v1/suites",
		"GET /v1/params", "POST /v1/predict", "POST /v1/sweep", "POST /v1/plan",
		"POST /v1/optimize", "POST /v1/seeds", "POST /v1/jobs", "GET /v1/jobs",
		"GET /v1/jobs/{id}", "DELETE /v1/jobs/{id}", "GET /v1/stats",
	} {
		if !routes[want] {
			t.Errorf("discovery missing route %q", want)
		}
	}
	if len(resp.Endpoints) != 15 {
		t.Errorf("discovery lists %d endpoints, want 15", len(resp.Endpoints))
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Requests.Discovery != 1 {
		t.Errorf("discovery request count = %d, want 1", st.Requests.Discovery)
	}
}

// TestBatchPredict asserts the batch form answers each machine exactly
// as its single-machine request would — same fits, same floats — with
// the request-wide fields hoisted to the envelope.
func TestBatchPredict(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fit is slow")
	}
	ts, _ := newTestServer(t, experiments.Options{})

	var singles []PredictResponse
	for _, m := range []string{"core2", "corei7"} {
		code, body := postJSON(t, ts.URL+"/v1/predict",
			`{"machine": {"name": "`+m+`"}, "suite": "cpu2000", "workload": "mcf"}`)
		if code != http.StatusOK {
			t.Fatalf("single %s: status %d: %s", m, code, body)
		}
		var r PredictResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		singles = append(singles, r)
	}

	code, body := postJSON(t, ts.URL+"/v1/predict",
		`{"machines": [{"name": "core2"}, {"name": "corei7"}], "suite": "cpu2000", "workload": "mcf"}`)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	var batch BatchPredictResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Suite != "cpu2000" || batch.Ops != testOps || batch.FitStarts != 2 {
		t.Errorf("batch envelope = %+v", batch)
	}
	if len(batch.Machines) != 2 {
		t.Fatalf("batch answered %d machines, want 2 in request order", len(batch.Machines))
	}
	for i, mp := range batch.Machines {
		single := singles[i]
		if mp.Machine != single.Machine || mp.ConfigHash != single.ConfigHash {
			t.Errorf("machine %d = %s/%s, want %s/%s", i, mp.Machine, mp.ConfigHash, single.Machine, single.ConfigHash)
		}
		if mp.Params != single.Params {
			t.Errorf("%s: batch params diverged from the single-machine fit", mp.Machine)
		}
		if len(mp.Workloads) != 1 || mp.Workloads[0].Workload != "mcf" {
			t.Fatalf("%s: workloads = %+v, want just mcf", mp.Machine, mp.Workloads)
		}
		if math.Float64bits(mp.Workloads[0].PredictedCPI) != math.Float64bits(single.Workloads[0].PredictedCPI) {
			t.Errorf("%s: batch predicted CPI diverged from single (bit mismatch)", mp.Machine)
		}
	}

	// The batch joined the singles' cached fits: still exactly two.
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Models.Fits != 2 {
		t.Errorf("batch after singles fitted %d models, want the 2 cached fits", st.Models.Fits)
	}
	if st.Models.Hits != 2 {
		t.Errorf("model hits = %d, want 2 (one per batch member)", st.Models.Hits)
	}
}

// TestOptimizeEndpointMatchesBlockingRun: the served optimizer answer is
// bit-identical to the blocking RunOptimize computation, and the wire
// report carries the probe accounting the CLI prints.
func TestOptimizeEndpointMatchesBlockingRun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end optimize is slow")
	}
	ts, _ := newTestServer(t, experiments.Options{})
	code, body := postJSON(t, ts.URL+"/v1/optimize",
		`{"base": {"name": "core2"}, "axes": [{"param": "width", "values": [2, 4]}, {"param": "memlat", "values": [150, 300]}], "suite": "cpu2000", "objective": {"kind": "min-cpi"}}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Base != "core2" || resp.Suite != "cpu2000" || resp.Algorithm != experiments.SearchCoordinateDescent {
		t.Fatalf("optimize response shape: base=%q suite=%q algorithm=%q", resp.Base, resp.Suite, resp.Algorithm)
	}
	if resp.GridCells != 4 || resp.Probes == 0 || resp.Probes > resp.GridCells {
		t.Errorf("probe accounting: %d probes over %d cells", resp.Probes, resp.GridCells)
	}
	if resp.Best == nil || len(resp.Best.ModelStack) != 9 {
		t.Fatalf("best point = %+v, want one with a 9-component model stack", resp.Best)
	}

	// Blocking reference with the daemon's options.
	spec := experiments.OptimizeSpec{
		Base: experiments.MachineSpec{Name: "core2"},
		Axes: []experiments.PlanAxis{
			{Param: "width", Values: []int{2, 4}},
			{Param: "memlat", Values: []int{150, 300}},
		},
		Suite:     "cpu2000",
		Objective: experiments.ObjectiveSpec{Kind: experiments.ObjectiveMinCPI},
	}
	o, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := experiments.RunOptimize(o, experiments.Options{NumOps: testOps, FitStarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Probes != ref.Probes {
		t.Errorf("served %d probes, blocking run made %d", resp.Probes, ref.Probes)
	}
	if !slicesEqual(resp.Best.Values, ref.Best.Values) {
		t.Errorf("served best %v, blocking best %v", resp.Best.Values, ref.Best.Values)
	}
	if math.Float64bits(resp.Best.SimCPI) != math.Float64bits(ref.Best.SimCPI) ||
		math.Float64bits(resp.Best.ModelCPI) != math.Float64bits(ref.Best.ModelCPI) {
		t.Error("served best CPIs diverge from the blocking run (bit mismatch)")
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Requests.Optimize != 1 {
		t.Errorf("optimize request count = %d, want 1", st.Requests.Optimize)
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSeedsEndpointValidation asserts every bogus seeds request is
// rejected with the structured error envelope before anything
// simulates, registry sentinels classified into their codes.
func TestSeedsEndpointValidation(t *testing.T) {
	ts, prov := newTestServer(t, experiments.Options{})
	cases := []struct {
		name, body, wantCode, wantErr string
	}{
		{"unknown field", `{"base": {"name": "core2"}, "suite": "cpu2000", "count": 2, "ops": 500}`, CodeBadRequest, "unknown field"},
		{"no subject", `{"count": 2}`, CodeBadRequest, "base+suite or a campaign"},
		{"base and campaign", `{"base": {"name": "core2"}, "suite": "cpu2000", "campaign": {"machines": [{"name": "core2"}], "suites": ["cpu2000"]}, "count": 2}`, CodeBadRequest, "not both"},
		{"campaign with ops", `{"campaign": {"machines": [{"name": "core2"}], "suites": ["cpu2000"], "ops": 500}, "count": 2}`, CodeBadRequest, "must not set ops"},
		{"seeds and count", `{"base": {"name": "core2"}, "suite": "cpu2000", "seeds": [1], "count": 2}`, CodeBadRequest, "not both"},
		{"no replications", `{"base": {"name": "core2"}, "suite": "cpu2000"}`, CodeBadRequest, "seed list or a count"},
		{"seed zero", `{"base": {"name": "core2"}, "suite": "cpu2000", "seeds": [0]}`, CodeBadRequest, "reserved"},
		{"duplicate seed", `{"base": {"name": "core2"}, "suite": "cpu2000", "seeds": [5, 5]}`, CodeBadRequest, "listed twice"},
		{"count over limit", `{"base": {"name": "core2"}, "suite": "cpu2000", "count": 65}`, CodeBadRequest, "exceed"},
		{"unknown suite", `{"base": {"name": "core2"}, "suite": "cpu2017", "count": 2}`, CodeUnknownSuite, "unknown suite"},
		{"unknown base", `{"base": {"name": "core9"}, "suite": "cpu2000", "count": 2}`, CodeUnknownMachine, "unknown machine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJSON(t, ts.URL+"/v1/seeds", tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("status %d, want 400 (%s)", code, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if e.Error.Code != tc.wantCode {
				t.Errorf("error code %q, want %q", e.Error.Code, tc.wantCode)
			}
			if !strings.Contains(e.Error.Message, tc.wantErr) {
				t.Errorf("error %q should mention %q", e.Error.Message, tc.wantErr)
			}
		})
	}
	if st := prov.Stats(); st.Fits != 0 || st.Sim.Simulated != 0 {
		t.Errorf("invalid seeds requests cost simulations: %+v", st)
	}
}

// TestSeedsEndpointMatchesBlockingRunSeeds is the replication flavour of
// the daemon-vs-CLI bit-identity proof: a served 2-seed sweep must
// reproduce the blocking RunSeeds statistics per-float — same per-seed
// values, same means, intervals and coefficient stability.
func TestSeedsEndpointMatchesBlockingRunSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end replication sweep is slow")
	}
	ts, _ := newTestServer(t, experiments.Options{})
	code, body := postJSON(t, ts.URL+"/v1/seeds",
		`{"base": {"name": "core2"}, "suite": "cpu2000", "count": 2}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp SeedsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Seeds) != 2 || resp.Ops != testOps || resp.FitStarts != 2 {
		t.Fatalf("seeds response envelope: %+v", resp)
	}
	if len(resp.Machines) != 1 || len(resp.Suites) != 1 || len(resp.Cells) != 1 {
		t.Fatalf("seeds response shape: %+v", resp)
	}
	// Two seeds × 48 workloads, nothing shareable between seeds.
	if resp.Sims.Simulated != 2*48 {
		t.Errorf("sourcing %+v, want 96 simulated", resp.Sims)
	}

	// Blocking reference: RunSeeds with the daemon's options. The
	// statistical surface must agree per-float (JSON float round-trips
	// are exact); sourcing is a per-path property and compared above.
	s, err := experiments.SeedsSpec{Base: &experiments.MachineSpec{Name: "core2"},
		Suite: "cpu2000", Count: 2}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := experiments.RunSeeds(s, experiments.Options{NumOps: testOps, FitStarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Cells, ref.Report().Cells) {
		t.Error("served seeds cells diverge from the blocking sweep")
	}
	if !reflect.DeepEqual(resp.Seeds, ref.Seeds) {
		t.Errorf("served seeds %v, blocking %v", resp.Seeds, ref.Seeds)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Requests.Seeds != 1 {
		t.Errorf("seeds request count = %d, want 1", st.Requests.Seeds)
	}
}
