package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/experiments"
	"repro/internal/runstore"
	"repro/internal/serve"
)

// maxTracedOps caps the traced loop, which otherwise runs for the
// run's seconds: a few thousand warm ops already pin every span mean.
const maxTracedOps = 2000

// tracedReport is what the traced run measured.
type tracedReport struct {
	tr          *tracer
	total       counts // traced replica, set-up included
	n           counts // traced replica, timed ops only
	ops         int
	attempted   int
	failed      int
	problems    problems
	tracedNs    int64 // traced replica wall time over the ops
	untracedNs  int64 // untraced replica wall time over the same ops
	daemonCPU   time.Duration
	floatsEqual int // numbers compared equal between replica and daemon
}

// runTraced sets one daemon up, then for each op asks the daemon, an
// untraced replica and a traced replica in turn, and checks that both
// replicas answer exactly what the daemon answered. Only the traced
// replica records spans; the untraced one prices the tracing itself.
func runTraced(e env, seq *sequence, seconds int, storeDir string) (*tracedReport, error) {
	rep := &tracedReport{tr: newTracer()}
	warmup := seq.next()
	d, _, err := setUp(e, seq, warmup, filepath.Join(e.runDir, "daemon"))
	if err != nil {
		return nil, err
	}
	defer d.stop()

	tracedStore, err := runstore.Open(filepath.Join(storeDir, "traced"))
	if err != nil {
		return nil, err
	}
	prov := experiments.NewProvider(experiments.Options{
		NumOps: daemonOps, FitStarts: daemonStarts, Workers: e.workers, Store: tracedStore,
	})
	held := map[string]bool{}
	traced := &replica{prov: prov, held: held, store: tracedStore, tr: rep.tr}
	untraced := &replica{prov: prov, held: held, store: tracedStore}
	if warmup.cold {
		// Cold ops must find an empty store on both passes.
		if untraced.store, err = runstore.Open(filepath.Join(storeDir, "untraced")); err != nil {
			return nil, err
		}
	}

	// Set-up: the traced replica replays the set-up requests (spans
	// under op -1); every fit is then loaded into the provider, whose
	// warm Fitted path later predicts of that machine take, and must
	// come out with the replica's parameters.
	for _, o := range seq.setup {
		body, err := setUpOp(traced, o)
		if err != nil {
			return nil, err
		}
		if o.path != pathPredict {
			continue
		}
		var resp serve.PredictResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		m, err := o.machine.Resolve()
		if err != nil {
			return nil, err
		}
		f, err := prov.Fitted(m, o.suite)
		if err != nil {
			return nil, err
		}
		if f.Model.P != resp.Params {
			rep.problems.add("provider fit of %s differs from the replica's: %+v vs %+v", m.Name, f.Model.P, resp.Params)
		}
		held[fitKey(m, o.suite)] = true
	}
	if _, err := setUpOp(traced, warmup); err != nil {
		return nil, err
	}
	if warmup.cold {
		if _, err := setUpOp(untraced, warmup); err != nil {
			return nil, err
		}
	}
	setupCounts := traced.n
	var want sourcing

	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	limit := time.Duration(seconds) * time.Second
	for i := 1; i <= 3 || (time.Since(start) < limit && i <= maxTracedOps); i++ {
		o := seq.next()
		rep.attempted++
		want.add(o.want)
		status, answer, err := d.do(o.path, o.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, answer)
		}
		if err != nil {
			rep.failed++
			rep.problems.add("op %d: daemon: %v", i, err)
			continue
		}
		// Alternate which replica goes first, so neither always runs
		// on caches the other warmed.
		order := []*replica{untraced, traced}
		if i%2 == 1 {
			order[0], order[1] = traced, untraced
		}
		failed := false
		for _, r := range order {
			who := "untraced"
			if r.tr != nil {
				who, r.tr.op = "traced", i
			}
			t0 := time.Now()
			sp := r.tr.begin("bench.op")
			got, err := r.do(o.path, o.body)
			r.tr.end(sp)
			if took := int64(time.Since(t0)); r.tr != nil {
				rep.tracedNs += took
			} else {
				rep.untracedNs += took
			}
			if !rep.sameAnswer(i, who, got, answer, err) {
				failed = true
			}
		}
		if failed {
			rep.failed++
		}
		rep.ops++
	}
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	rep.daemonCPU = (cpu1 - cpu0) / time.Duration(rep.attempted)
	rep.total = traced.n
	rep.n = traced.n.minus(setupCounts)
	if n := rep.n; n.fits != want.fits || n.simulated != want.simulated || n.storeHits != want.storeHits {
		rep.problems.add("traced ops cost %d fits / %d simulations / %d store hits, want %d / %d / %d",
			n.fits, n.simulated, n.storeHits, want.fits, want.simulated, want.storeHits)
	}
	return rep, nil
}

// setUpOp replays one set-up request on a replica, its spans under op -1.
func setUpOp(r *replica, o op) ([]byte, error) {
	if r.tr != nil {
		r.tr.op = -1
	}
	sp := r.tr.begin("bench.setup")
	body, err := r.do(o.path, o.body)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("replica set-up %s %s: %w", o.path, o.body, err)
	}
	return body, nil
}

// sameAnswer reports whether a replica's answer equals the daemon's
// value for value — every float compared exactly — and records why not.
func (rep *tracedReport) sameAnswer(i int, who string, got, want []byte, err error) bool {
	if err != nil {
		rep.problems.add("op %d: %s replica: %v", i, who, err)
		return false
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		rep.problems.add("op %d: %s replica answer: %v", i, who, err)
		return false
	}
	if err := json.Unmarshal(want, &w); err != nil {
		rep.problems.add("op %d: daemon answer: %v", i, err)
		return false
	}
	if !reflect.DeepEqual(g, w) {
		rep.problems.add("op %d: %s replica answer differs from the daemon's", i, who)
		return false
	}
	rep.floatsEqual += countNumbers(w)
	return true
}

func countNumbers(v any) int {
	switch x := v.(type) {
	case float64:
		return 1
	case []any:
		n := 0
		for _, e := range x {
			n += countNumbers(e)
		}
		return n
	case map[string]any:
		n := 0
		for _, e := range x {
			n += countNumbers(e)
		}
		return n
	}
	return 0
}
