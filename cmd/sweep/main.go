// Command sweep runs micro-architecture parameter explorations: it
// derives machines from a registered base, simulates a suite on every
// point (incrementally, through the run store), fits the
// mechanistic-empirical model at the base configuration, and prints
// sensitivity tables of simulated vs model-predicted CPI.
//
// With one -param/-values pair it is the classic one-axis sweep,
// overall and per CPI-stack component — the model-extrapolation
// experiment the paper gestures at but never runs; -json emits the
// POST /v1/sweep report instead of the tables. Repeating
// -param/-values crosses the axes into a multi-axis exploration plan: a
// full grid of derived machines, fitted once at the base point and
// extrapolated per cell, with every workload's µop trace materialized
// once and replayed across all grid machines. -plan loads the same grid
// from a strict-JSON plan file ({"base": ..., "axes": [...], "suite":
// ...}), the format POST /v1/plan accepts over the wire; -json emits
// the POST /v1/plan report instead of the grid table.
//
// -optimize searches a grid instead of enumerating it: it loads a
// strict-JSON optimize spec ({"base": ..., "axes": [...], "suite": ...,
// "objective": ..., "search": ...} — the POST /v1/optimize format),
// fits the model once at the base point and lets coordinate descent or
// successive halving probe only the cells the search needs, printing
// the best point (or Pareto frontier) with per-component CPI stacks and
// the probe count. -json emits the wire-format report instead of the
// table.
//
// -seeds replicates a whole campaign across workload-generator seeds:
// it loads a strict-JSON seeds spec ({"base": ..., "suite": ...,
// "seeds": [...]} or {"campaign": ..., "count": N} — the POST /v1/seeds
// format), simulates and fits every (machine, suite) cell once per
// seed, and prints mean, sample standard deviation and Student-t 95%
// confidence intervals on CPI and model error, plus a per-coefficient
// fit-stability table. Store keys include the seed, so reruns and
// overlapping sweeps stay warm.
//
// Usage:
//
//	sweep -base core2 -param rob -values 32,64,128,256 [-json]
//	      [-suite cpu2006] [-ops N] [-starts N] [-store DIR]
//	sweep -base core2 -param rob -values 64,128 -param memlat -values 150,300 [-json]
//	sweep -plan grid.json [-json] [-ops N] [-starts N] [-store DIR]
//	sweep -optimize spec.json [-json] [-ops N] [-starts N] [-store DIR]
//	sweep -seeds spec.json [-json] [-ops N] [-starts N] [-store DIR]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// Everything is deterministic; with -store DIR a repeated run
// dispatches zero simulations (100% run-store hits) and regenerates
// zero traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/runstore"
	"repro/internal/uarch"
)

// multiFlag collects repeated occurrences of one flag, so -param and
// -values can be given once per grid axis.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, " ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var paramDocs []string
	for _, p := range experiments.SweepParams() {
		paramDocs = append(paramDocs, p.Name)
	}
	base := flag.String("base", "core2", "base machine to derive exploration points from")
	var params, valueLists multiFlag
	flag.Var(&params, "param", "parameter to explore, repeatable for a grid: "+strings.Join(paramDocs, ", "))
	flag.Var(&valueLists, "values", "comma-separated values for the matching -param (repeat once per axis), e.g. 32,64,128,256")
	planFile := flag.String("plan", "", "plan file (strict JSON {base, axes, suite}); replaces -base/-param/-values/-suite")
	optimizeFile := flag.String("optimize", "", "optimize spec file (strict JSON {base, axes, suite, objective[, search]}); replaces -base/-param/-values/-suite")
	seedsFile := flag.String("seeds", "", "seeds spec file (strict JSON {base, suite, seeds|count} or {campaign, seeds|count}); replaces -base/-param/-values/-suite")
	jsonOut := flag.Bool("json", false, "print the wire-format JSON report (the matching POST /v1/{sweep,plan,optimize,seeds} body) instead of the tables")
	suite := flag.String("suite", "cpu2006", "suite to simulate and fit on")
	ops := flag.Int("ops", 300000, "µops per workload")
	starts := flag.Int("starts", 12, "regression multi-start count")
	storeDir := flag.String("store", "", "run-store directory for cached simulation results (empty = no cache)")
	workers := flag.Int("workers", 0, "simulation worker count (0 = GOMAXPROCS)")
	liveBufs := flag.Int("livebufs", 0, "max materialized µop streams live at once, ≈56·ops bytes each (0 = workers+1)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	err = realMain(os.Stdout, *base, params, valueLists, *suite, *ops, *starts, *workers, *liveBufs, *storeDir, *planFile, *optimizeFile, *seedsFile, *jsonOut)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func parseValues(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("no -values given (want e.g. -values 32,64,128)")
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad sweep value %q: %w", f, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("sweep value %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseAxes pairs each -param occurrence with the -values occurrence at
// the same position.
func parseAxes(params, valueLists []string) ([]experiments.PlanAxis, error) {
	if len(params) != len(valueLists) {
		return nil, fmt.Errorf("%d -param flags but %d -values flags (give one -values per -param)",
			len(params), len(valueLists))
	}
	axes := make([]experiments.PlanAxis, 0, len(params))
	for i, p := range params {
		vals, err := parseValues(valueLists[i])
		if err != nil {
			return nil, err
		}
		axes = append(axes, experiments.PlanAxis{Param: p, Values: vals})
	}
	return axes, nil
}

func realMain(out io.Writer, baseName string, params, valueLists []string, suiteName string, ops, starts, workers, liveBufs int, storeDir, planFile, optimizeFile, seedsFile string, jsonOut bool) error {
	opts := experiments.Options{NumOps: ops, FitStarts: starts, Workers: workers, LiveBuffers: liveBufs}
	if storeDir != "" {
		store, err := runstore.Open(storeDir)
		if err != nil {
			return err
		}
		opts.Store = store
	}

	// A seeds spec carries its own subject (base+suite or campaign) and
	// replication list.
	if seedsFile != "" {
		if planFile != "" || optimizeFile != "" || len(params) > 0 || len(valueLists) > 0 {
			return fmt.Errorf("-seeds replaces -plan/-optimize/-param/-values; give one or the other")
		}
		spec, err := experiments.LoadSeedsSpec(seedsFile)
		if err != nil {
			return err
		}
		sweep, err := spec.Resolve()
		if err != nil {
			return err
		}
		return runSeeds(out, sweep, opts, jsonOut)
	}

	// An optimize spec carries its own base, axes, suite and objective.
	if optimizeFile != "" {
		if planFile != "" || len(params) > 0 || len(valueLists) > 0 {
			return fmt.Errorf("-optimize replaces -plan/-param/-values; give one or the other")
		}
		spec, err := experiments.LoadOptimizeSpec(optimizeFile)
		if err != nil {
			return err
		}
		o, err := spec.Resolve()
		if err != nil {
			return err
		}
		return runOptimize(out, o, opts, jsonOut)
	}

	// A plan file carries its own base, axes and suite; otherwise the
	// axes come from the repeated -param/-values pairs.
	if planFile != "" {
		if len(params) > 0 || len(valueLists) > 0 {
			return fmt.Errorf("-plan replaces -param/-values; give one or the other")
		}
		ps, err := experiments.LoadPlanSpec(planFile)
		if err != nil {
			return err
		}
		plan, err := ps.Resolve()
		if err != nil {
			return err
		}
		return runGrid(out, plan, opts, jsonOut)
	}

	if len(params) == 0 {
		params = []string{"rob"}
		if len(valueLists) == 0 {
			return fmt.Errorf("no -values given (want e.g. -values 32,64,128)")
		}
	}
	axes, err := parseAxes(params, valueLists)
	if err != nil {
		return err
	}
	base, err := uarch.ByName(baseName)
	if err != nil {
		return err
	}

	if len(axes) == 1 {
		// The classic one-axis sweep, with its original output format.
		if _, err := experiments.SweepParamByName(axes[0].Param); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweeping %s %s over %v on %s (%d µops/workload)...\n",
			baseName, axes[0].Param, axes[0].Values, suiteName, ops)
		t0 := time.Now()
		res, err := experiments.RunSweep(base, axes[0].Param, axes[0].Values, suiteName, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep done in %v\n", time.Since(t0).Round(time.Millisecond))
		if opts.Store != nil {
			st := res.Stats
			fmt.Fprintf(os.Stderr, "run store %s: %d hits, %d simulated (%.1f%% hit rate)\n",
				opts.Store.Dir(), st.Hits, st.Simulated,
				100*float64(st.Hits)/float64(st.Hits+st.Simulated))
		}
		fmt.Fprintln(os.Stderr)
		if jsonOut {
			return writeReport(out, res.Report())
		}
		fmt.Fprint(out, res.Render())
		return nil
	}

	plan, err := experiments.NewPlan(base, axes, suiteName)
	if err != nil {
		return err
	}
	return runGrid(out, plan, opts, jsonOut)
}

// runOptimize executes a validated design-space search and prints the
// rendered result (or, with -json, the same wire-format report POST
// /v1/optimize answers — machine-greppable for smoke tests).
func runOptimize(out io.Writer, o *experiments.Optimize, opts experiments.Options, jsonOut bool) error {
	var axisNames []string
	for _, ax := range o.Plan.Axes {
		axisNames = append(axisNames, ax.Param)
	}
	fmt.Fprintf(os.Stderr, "optimizing %s over %s on %s: %s via %s, %d cells (%d µops/workload)...\n",
		o.Plan.Base.Name, strings.Join(axisNames, "×"), o.Plan.Suite,
		o.Objective.Kind, o.Search.Algorithm, len(o.Plan.Cells), opts.NumOps)
	t0 := time.Now()
	res, err := experiments.RunOptimize(o, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "optimize done in %v: %d of %d cells probed\n",
		time.Since(t0).Round(time.Millisecond), res.Probes, res.GridCells)
	printSourcing(res.Stats, opts.Store)

	if jsonOut {
		return writeReport(out, res.Report())
	}
	fmt.Fprint(out, res.Render())
	return nil
}

// runSeeds executes a validated seed sweep and prints the rendered
// statistics (or, with -json, the same wire-format report POST
// /v1/seeds answers — machine-greppable for smoke tests).
func runSeeds(out io.Writer, s *experiments.Seeds, opts experiments.Options, jsonOut bool) error {
	var machineNames []string
	for _, m := range s.Machines {
		machineNames = append(machineNames, m.Name)
	}
	fmt.Fprintf(os.Stderr, "seed-sweeping %s × %s over %d seeds %v (%d µops/workload)...\n",
		strings.Join(machineNames, ","), strings.Join(s.Suites, ","),
		len(s.SeedList), s.SeedList, opts.NumOps)
	t0 := time.Now()
	res, err := experiments.RunSeeds(s, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "seeds done in %v\n", time.Since(t0).Round(time.Millisecond))
	printSourcing(res.Stats, opts.Store)

	if jsonOut {
		return writeReport(out, res.Report())
	}
	fmt.Fprint(out, res.Render())
	return nil
}

// runGrid executes a validated multi-axis plan and prints the grid
// table plus sourcing statistics (including how many µop traces were
// actually generated — a warm store regenerates none, and a cold grid
// generates one per workload, not one per cell).
func runGrid(out io.Writer, plan *experiments.Plan, opts experiments.Options, jsonOut bool) error {
	var axisNames []string
	for _, ax := range plan.Axes {
		axisNames = append(axisNames, ax.Param)
	}
	fmt.Fprintf(os.Stderr, "planning %s over %s on %s: %d cells (%d µops/workload)...\n",
		plan.Base.Name, strings.Join(axisNames, "×"), plan.Suite, len(plan.Cells), opts.NumOps)
	t0 := time.Now()
	res, err := experiments.RunPlan(plan, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "plan done in %v\n", time.Since(t0).Round(time.Millisecond))
	printSourcing(res.Stats, opts.Store)

	if jsonOut {
		return writeReport(out, res.Report())
	}
	fmt.Fprint(out, res.Render())
	return nil
}

// writeReport prints an operation's wire-format report exactly as the
// matching POST endpoint answers it: indented JSON plus a newline.
func writeReport(out io.Writer, report any) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	_, err = out.Write(append(data, '\n'))
	return err
}

// printSourcing reports to stderr where the runs came from and how many
// µop traces were actually generated (a warm store regenerates none).
func printSourcing(st experiments.SimStats, store *runstore.Store) {
	if store != nil {
		fmt.Fprintf(os.Stderr, "run store %s: %d hits, %d simulated (%.1f%% hit rate), %d traces generated\n",
			store.Dir(), st.Hits, st.Simulated,
			100*float64(st.Hits)/float64(st.Hits+st.Simulated), st.TraceGens)
	} else {
		fmt.Fprintf(os.Stderr, "%d simulated, %d traces generated\n", st.Simulated, st.TraceGens)
	}
	fmt.Fprintln(os.Stderr)
}
