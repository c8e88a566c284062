package main

import (
	"bytes"
	"testing"
)

// firstOps draws the set-up requests and the first n ops of a sequence.
func firstOps(t *testing.T, workload string, seed uint64, n int) []op {
	t.Helper()
	seq, err := newSequence(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	ops := append([]op(nil), seq.setup...)
	for i := 0; i < n; i++ {
		ops = append(ops, seq.next())
	}
	return ops
}

func TestSequenceIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, b := firstOps(t, w, 7, 100), firstOps(t, w, 7, 100)
		other := firstOps(t, w, 8, 100)
		same, differs := true, false
		for i := range a {
			same = same && bytes.Equal(a[i].body, b[i].body) && a[i].path == b[i].path
			differs = differs || !bytes.Equal(a[i].body, other[i].body)
		}
		if !same {
			t.Errorf("%s: two sequences of seed 7 differ", w)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", w)
		}
	}
}

func TestColdSequencesNeverRepeatAMachineOrCell(t *testing.T) {
	seq, err := newSequence(predictCold, 3)
	if err != nil {
		t.Fatal(err)
	}
	names, configs := map[string]bool{}, map[string]bool{}
	for i := 0; i < 300; i++ {
		o := seq.next()
		m, err := o.machine.Resolve()
		if err != nil {
			t.Fatalf("op %d: derived machine does not validate: %v", i, err)
		}
		// The name is part of the config hash, so compare the
		// configuration under a common name too.
		anon := *m
		anon.Name = "x"
		if names[m.Name] || configs[anon.ConfigHash()] {
			t.Fatalf("op %d repeats machine %s", i, m.Name)
		}
		names[m.Name], configs[anon.ConfigHash()] = true, true
		if !o.cold || o.want.fits != 1 {
			t.Fatalf("op %d is not a cold predict: %+v", i, o.want)
		}
	}

	seq, err = newSequence(planCold, 3)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]bool{}
	for i := 0; i < 60; i++ {
		o := seq.next()
		p, err := o.plan.Resolve()
		if err != nil {
			t.Fatalf("op %d: grid does not validate: %v", i, err)
		}
		for _, m := range p.Machines[1:] {
			anon := *m
			anon.Name = "x"
			if cells[anon.ConfigHash()] {
				t.Fatalf("op %d repeats cell %s", i, m.Name)
			}
			cells[anon.ConfigHash()] = true
		}
		base := *p.Base
		base.Name = "x"
		if cells[base.ConfigHash()] {
			t.Fatalf("op %d has a cell equal to the base machine", i)
		}
	}
}

func TestWarmSequencesRepeatTheirSetUp(t *testing.T) {
	for _, w := range []string{predictWarm, planWarm} {
		seq, err := newSequence(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		pool := map[string]bool{}
		for _, o := range seq.setup {
			if o.machine != nil {
				pool[o.machine.Name] = true
			} else {
				pool[string(o.body)] = true
			}
		}
		for i := 0; i < 500; i++ {
			o := seq.next()
			key := string(o.body)
			if o.machine != nil {
				key = o.machine.Name
			}
			if o.cold || !pool[key] {
				t.Fatalf("%s op %d is not a repeat of its set-up: %s", w, i, o.body)
			}
		}
	}
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.90); err == nil {
		t.Error("p90 of 99 samples has only 9 beyond it; want a refusal")
	}
	xs = append(xs, 100)
	got, err := percentile(xs, 0.90)
	if err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(xs[:5], 0.5); err == nil {
		t.Error("p50 of 5 samples; want a refusal")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.op", Parent: -1, Start: 0, End: 100},
		{Name: "core.fit", Parent: 0, Start: 10, End: 50},
		{Name: "core.stack", Parent: 1, Start: 20, End: 30},
		{Name: "serve.encode", Parent: 0, Start: 60, End: 90},
	}}
	want := []int64{30, 30, 10, 30}
	for i, got := range tr.selfTimes() {
		if got != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got, want[i])
		}
	}
}
