package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJobSpec drives arbitrary bytes through job admission: it
// strict-decodes them as a JobSpec with the POST /v1/jobs rules
// (unknown fields and trailing documents are errors), then runs the
// job-kind table's resolve step without enqueueing anything. Neither
// step may panic, and a spec the table rejects must be rejected by
// Submit too, without leaving a registered job. Accepted specs are not
// submitted: running them would simulate. The seed corpus wraps every
// example payload in its job envelope, plus the malformed shapes the
// payload rule exists to reject.
func FuzzJobSpec(f *testing.F) {
	for _, ex := range []struct{ kind, dir string }{
		{JobKindCampaign, "scenarios"},
		{JobKindPlan, "plans"},
		{JobKindOptimize, "optimize"},
		{JobKindSeeds, "seeds"},
	} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "examples", ex.dir, "*.json"))
		if err != nil {
			f.Fatal(err)
		}
		if len(paths) == 0 {
			f.Fatalf("no example %s payloads found for the seed corpus", ex.kind)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add([]byte(fmt.Sprintf(`{"kind": %q, %q: %s}`, ex.kind, ex.kind, data)))
		}
	}
	for _, seed := range []string{
		``,
		`{}`,
		`null`,
		`{"kind": "fleet"}`,
		`{"kind": "sweep", "sweep": {"base": {"name": "core2"}, "param": "rob", "values": [48, 96], "suite": "cpu2000"}}`,
		`{"kind": "sweep", "campaign": {"machines": [{"name": "core2"}], "suites": ["cpu2000"]}}`,
		`{"kind": "plan", "plan": {"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64]}], "suite": "cpu2000"}, "sweep": {}}`,
		`{"kind": "optimize", "optimize": {"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48, 96]}], "suite": "cpu2000", "objective": {"kind": "max-fun"}}}`,
		`{"kind": "seeds", "seeds": {"base": {"name": "core2"}, "suite": "cpu2000", "seeds": [0, 0]}}`,
		`{"kind": "campaign", "campaign": {"machines": [{"name": "core2"}], "suites": ["cpu2000"]}, "typo": 1}`,
		`{"kind": "plan", "plan": {"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [64, 64]}], "suite": "cpu2000"}}`,
		`{"kind": "sweep", "sweep": {"base": {"name": "core9"}, "param": "rob", "values": [64], "suite": "cpu2017"}} {}`,
	} {
		f.Add([]byte(seed))
	}

	jobs := NewJobs(Options{NumOps: 1000, FitStarts: 2}, JobsConfig{})
	f.Cleanup(func() { jobs.Drain(context.Background()) })
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var spec JobSpec
		if err := dec.Decode(&spec); err != nil || dec.More() {
			return // rejected by the decoder, like POST /v1/jobs
		}
		if _, err := resolveJob(&spec, jobs.opts, func(func(*JobProgress)) {}); err == nil {
			return
		}
		if _, err := jobs.Submit(spec); err == nil {
			t.Fatalf("Submit accepted a spec the kind table rejects: %s", data)
		}
		if n := len(jobs.List()); n != 0 {
			t.Fatalf("rejected spec left %d registered jobs: %s", n, data)
		}
	})
}
