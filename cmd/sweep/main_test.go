package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/serve"
)

func TestParseValues(t *testing.T) {
	got, err := parseValues(" 32, 64,128 ")
	if err != nil || len(got) != 3 || got[0] != 32 || got[2] != 128 {
		t.Errorf("parseValues: %v, %v", got, err)
	}
	for _, bad := range []string{"", "a,b", "64,-1", "64,,128"} {
		if _, err := parseValues(bad); err == nil {
			t.Errorf("parseValues(%q) should fail", bad)
		}
	}
}

func TestParseAxesPairsFlags(t *testing.T) {
	axes, err := parseAxes([]string{"rob", "memlat"}, []string{"64,128", "150"})
	if err != nil || len(axes) != 2 || axes[1].Param != "memlat" || axes[1].Values[0] != 150 {
		t.Errorf("parseAxes: %+v, %v", axes, err)
	}
	if _, err := parseAxes([]string{"rob", "memlat"}, []string{"64"}); err == nil {
		t.Error("mismatched -param/-values counts should fail")
	}
}

func TestRealMainRejectsBadAxis(t *testing.T) {
	run := func(param, values string) error {
		return realMain(&bytes.Buffer{}, "core2", []string{param}, []string{values}, "cpu2000", 1000, 2, 0, 0, "", "", "", "", false)
	}
	err := run("cores", "1,2")
	if err == nil || !strings.Contains(err.Error(), "rob") {
		t.Errorf("unknown axis should list valid ones: %v", err)
	}
	if err := realMain(&bytes.Buffer{}, "atom", []string{"rob"}, []string{"64"}, "cpu2000", 1000, 2, 0, 0, "", "", "", "", false); err == nil {
		t.Error("unknown base machine should fail")
	}
	if err := run("rob", ""); err == nil {
		t.Error("missing values should fail")
	}
	if err := run("rob", "64,64"); err == nil {
		t.Error("duplicate values should be rejected at validation time")
	}
	// Grid path validates too: a duplicated value on any axis fails
	// before anything simulates.
	err = realMain(&bytes.Buffer{}, "core2", []string{"rob", "memlat"}, []string{"64,96", "200,200"},
		"cpu2000", 1000, 2, 0, 0, "", "", "", "", false)
	if err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Errorf("duplicate grid values should be rejected: %v", err)
	}
}

func TestRealMainPlanFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(good, []byte(`{
		"base": {"name": "core2"},
		"axes": [{"param": "rob", "values": [48, 96]}, {"param": "mshrs", "values": [4, 8]}],
		"suite": "cpu2000"
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := realMain(&out, "core2", nil, nil, "cpu2000", 2000, 2, 0, 0, "", good, "", "", false); err != nil {
		t.Fatalf("plan file run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"plan: core2 × rob×mshrs on cpu2000 (4 cells", "sim-CPI", "worst extrapolation"} {
		if !strings.Contains(text, want) {
			t.Errorf("grid output missing %q:\n%s", want, text)
		}
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"base": {"name": "core2"}, "axes": [], "suite": "cpu2000"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := realMain(&out, "core2", nil, nil, "cpu2000", 1000, 2, 0, 0, "", bad, "", "", false); err == nil {
		t.Error("axis-free plan file should fail")
	}
	if err := realMain(&out, "core2", []string{"rob"}, []string{"64"}, "cpu2000", 1000, 2, 0, 0, "", good, "", "", false); err == nil {
		t.Error("-plan together with -param should fail")
	}
}

// TestRealMainSweepJSONMatchesServe: a one-axis sweep's -json output
// is byte-identical to the POST /v1/sweep answer for the same inputs —
// one report type, marshalled the same way on both surfaces.
func TestRealMainSweepJSONMatchesServe(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep is slow")
	}
	var out bytes.Buffer
	if err := realMain(&out, "core2", []string{"rob"}, []string{"48,96"}, "cpu2000", 2000, 2, 0, 0, "", "", "", "", true); err != nil {
		t.Fatalf("sweep -json: %v", err)
	}

	prov := experiments.NewProvider(experiments.Options{NumOps: 2000, FitStarts: 2})
	ts := httptest.NewServer(serve.New(prov, nil).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(
		`{"base": {"name": "core2"}, "param": "rob", "values": [48, 96], "suite": "cpu2000"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/sweep: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(out.Bytes(), body) {
		t.Errorf("sweep -json differs from POST /v1/sweep:\ncli:\n%s\nserve:\n%s", out.Bytes(), body)
	}
}

func TestRealMainOptimizeFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "opt.json")
	if err := os.WriteFile(spec, []byte(`{
		"base": {"name": "core2"},
		"axes": [{"param": "width", "values": [2, 4]}, {"param": "memlat", "values": [150, 300]}],
		"suite": "cpu2000",
		"objective": {"kind": "min-cpi"}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	store := filepath.Join(dir, "store")
	var out bytes.Buffer
	if err := realMain(&out, "core2", nil, nil, "cpu2000", 2000, 2, 0, 0, store, "", spec, "", false); err != nil {
		t.Fatalf("optimize run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"optimize: core2 over width×memlat on cpu2000", "min-cpi", "coordinate-descent", "probes:", "best:", "model stack:"} {
		if !strings.Contains(text, want) {
			t.Errorf("optimize output missing %q:\n%s", want, text)
		}
	}

	// The warm -json rerun is the smoke-test contract: every run from
	// the store, zero simulations, zero regenerated traces.
	out.Reset()
	if err := realMain(&out, "core2", nil, nil, "cpu2000", 2000, 2, 0, 0, store, "", spec, "", true); err != nil {
		t.Fatalf("warm optimize rerun: %v", err)
	}
	var rep struct {
		Probes int `json:"probes"`
		Sims   struct {
			Simulated int `json:"simulated"`
			TraceGens int `json:"traceGens"`
		} `json:"sims"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out.String())
	}
	if rep.Probes == 0 {
		t.Error("JSON report missing probe accounting")
	}
	if rep.Sims.Simulated != 0 || rep.Sims.TraceGens != 0 {
		t.Errorf("warm rerun sims = %+v, want zero simulated and zero trace generations", rep.Sims)
	}

	// -optimize is exclusive with -plan and -param, and -json still
	// needs a mode: without -values there is nothing to run.
	if err := realMain(&out, "core2", []string{"rob"}, []string{"64"}, "cpu2000", 1000, 2, 0, 0, "", "", spec, "", false); err == nil {
		t.Error("-optimize together with -param should fail")
	}
	if err := realMain(&out, "core2", nil, nil, "cpu2000", 1000, 2, 0, 0, "", spec, spec, "", false); err == nil {
		t.Error("-optimize together with -plan should fail")
	}
	if err := realMain(&out, "core2", nil, nil, "cpu2000", 1000, 2, 0, 0, "", "", "", "", true); err == nil {
		t.Error("-json without -values should fail")
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48]}], "suite": "cpu2000", "objective": {"kind": "max-fun"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := realMain(&out, "core2", nil, nil, "cpu2000", 1000, 2, 0, 0, "", "", bad, "", false); err == nil {
		t.Error("unknown objective kind should fail before anything simulates")
	}
}

func TestRealMainSeedsFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "seeds.json")
	if err := os.WriteFile(spec, []byte(`{
		"base": {"name": "core2"},
		"suite": "cpu2000",
		"count": 2
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	store := filepath.Join(dir, "store")
	var out bytes.Buffer
	if err := realMain(&out, "core2", nil, nil, "cpu2006", 2000, 2, 0, 0, store, "", "", spec, false); err != nil {
		t.Fatalf("seeds run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"seeds: 2 replications [1 2]", "mean-CPI", "95% CI", "coefficient stability"} {
		if !strings.Contains(text, want) {
			t.Errorf("seeds output missing %q:\n%s", want, text)
		}
	}

	// The warm -json rerun is the smoke-test contract: every run from
	// the store, zero simulations, zero regenerated traces.
	out.Reset()
	if err := realMain(&out, "core2", nil, nil, "cpu2006", 2000, 2, 0, 0, store, "", "", spec, true); err != nil {
		t.Fatalf("warm seeds rerun: %v", err)
	}
	var rep struct {
		Seeds []uint64 `json:"seeds"`
		Cells []struct {
			CPI struct {
				PerSeed []float64 `json:"perSeed"`
			} `json:"cpi"`
		} `json:"cells"`
		Sims struct {
			StoreHits int `json:"storeHits"`
			Simulated int `json:"simulated"`
			TraceGens int `json:"traceGens"`
		} `json:"sims"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out.String())
	}
	if len(rep.Seeds) != 2 || len(rep.Cells) != 1 || len(rep.Cells[0].CPI.PerSeed) != 2 {
		t.Errorf("JSON report shape wrong: %+v", rep)
	}
	if rep.Sims.Simulated != 0 || rep.Sims.TraceGens != 0 {
		t.Errorf("warm rerun sims = %+v, want zero simulated and zero trace generations", rep.Sims)
	}
	if rep.Sims.StoreHits == 0 {
		t.Error("warm rerun should report store hits")
	}

	// -seeds is exclusive with the other modes, and bad specs fail fast.
	if err := realMain(&out, "core2", []string{"rob"}, []string{"64"}, "cpu2000", 1000, 2, 0, 0, "", "", "", spec, false); err == nil {
		t.Error("-seeds together with -param should fail")
	}
	bad := filepath.Join(dir, "badseeds.json")
	if err := os.WriteFile(bad, []byte(`{"base": {"name": "core2"}, "suite": "cpu2000", "seeds": [0]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := realMain(&out, "core2", nil, nil, "cpu2000", 1000, 2, 0, 0, "", "", "", bad, false); err == nil {
		t.Error("seed 0 should fail before anything simulates")
	}
}
