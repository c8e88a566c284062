// Benchmarks regenerating every table and figure of the paper, plus
// ablation benches for the design choices DESIGN.md calls out and
// throughput benches for the substrates. Each figure bench reports the
// headline numbers of its artifact via b.ReportMetric (e.g. avg CPI
// error in percent), so `go test -bench=. -benchmem` reproduces the
// paper's rows/series in one run.
//
// The simulation campaign (103 workloads × 3 machines) is shared across
// benchmarks through a lazily initialized lab; fitted models are reset
// per iteration so the regression cost is measured honestly.
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/calibrator"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/runstore"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/suites"
	"repro/internal/trace"
	"repro/internal/uarch"
)

var (
	labOnce sync.Once
	labInst *experiments.Lab
	labErr  error
)

// benchOps is the per-workload µop count of the shared campaign. 1.2M
// µops are needed for the cache-capacity effects the paper's Figure 6
// hinges on (the i7's 8MB L3 removing misses that the Core 2's 4MB L2
// takes); CI smoke runs shrink it via REPRO_BENCH_OPS.
func benchOps() int {
	if s := os.Getenv("REPRO_BENCH_OPS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1200000
}

// benchStore opens the run store the shared campaign is cached in, so
// benchmark reruns are warm (zero re-simulation). REPRO_RUNSTORE picks
// the directory ("off" disables caching); the default lives under the
// system temp directory, per-user so two users on one host don't fight
// over file ownership, and is keyed by µop count through the spec hash.
func benchStore() (*runstore.Store, error) {
	dir := os.Getenv("REPRO_RUNSTORE")
	if dir == "off" {
		return nil, nil
	}
	if dir == "" {
		dir = filepath.Join(os.TempDir(), fmt.Sprintf("repro-runstore-%d", os.Getuid()))
	}
	return runstore.Open(dir)
}

// benchLab simulates the full campaign once per test binary invocation
// and shares it across all figure benches; with a warm run store even
// that one campaign is pure cache hits.
func benchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	labOnce.Do(func() {
		store, err := benchStore()
		if err != nil {
			labErr = err
			return
		}
		labInst = experiments.NewLab(experiments.Options{
			NumOps:    benchOps(),
			FitStarts: 6,
			Store:     store,
		})
		labErr = labInst.Simulate()
	})
	if labErr != nil {
		b.Fatal(labErr)
	}
	// Whichever figure bench runs first pays for the shared campaign;
	// leave it out so no bench's numbers depend on the run order.
	b.ResetTimer()
	return labInst
}

// --- Table 1: processor configurations. ---

func BenchmarkTable1Configs(b *testing.B) {
	l := experiments.NewLab(experiments.Options{})
	for i := 0; i < b.N; i++ {
		if out := l.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Table 2: micro-architecture parameters via calibration. ---

func BenchmarkTable2Calibration(b *testing.B) {
	l := experiments.NewLab(experiments.Options{})
	var maxRelErr float64
	for i := 0; i < b.N; i++ {
		rows, _, err := l.Table2()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			e := stats.RelErr(float64(r.Measured.MemLat), float64(r.Configured.MemLat))
			if e > maxRelErr {
				maxRelErr = e
			}
		}
	}
	b.ReportMetric(100*maxRelErr, "max-mem-lat-err-%")
}

// --- Figure 2: model accuracy, no cross-validation. ---

func BenchmarkFig2ModelAccuracy(b *testing.B) {
	l := benchLab(b)
	var avg2000, avg2006, maxErr, frac20 float64
	for i := 0; i < b.N; i++ {
		l.ResetModels()
		panels, _, err := l.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		avg2000, avg2006, maxErr, frac20 = 0, 0, 0, 0
		for _, p := range panels {
			if p.Suite == "cpu2000" {
				avg2000 += p.MARE / 3
			} else {
				avg2006 += p.MARE / 3
			}
			if p.MaxErr > maxErr {
				maxErr = p.MaxErr
			}
			frac20 += p.FracBelow20 / 6
		}
	}
	b.ReportMetric(100*avg2000, "avg-err-2000-%") // paper: 9.7%
	b.ReportMetric(100*avg2006, "avg-err-2006-%") // paper: 10.5%
	b.ReportMetric(100*maxErr, "max-err-%")       // paper: 35%
	b.ReportMetric(100*frac20, "frac-below-20-%") // paper: 90%
}

// --- Figure 3: robustness (cross-suite model transfer). ---

func BenchmarkFig3Robustness(b *testing.B) {
	l := benchLab(b)
	var inSuite, transfer float64
	for i := 0; i < b.N; i++ {
		l.ResetModels()
		results, _, err := l.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		inSuite, transfer = 0, 0
		for _, r := range results {
			inSuite += r.InSuiteMARE / 3
			transfer += r.TransferMARE / 3
		}
	}
	b.ReportMetric(100*inSuite, "insuite-err-%")
	b.ReportMetric(100*transfer, "transfer-err-%") // paper: only slightly worse
}

// --- Figure 4: vs purely empirical models. ---

func BenchmarkFig4EmpiricalComparison(b *testing.B) {
	l := benchLab(b)
	var meNoCV, annNoCV, linNoCV, meCV, annCV, linCV float64
	for i := 0; i < b.N; i++ {
		l.ResetModels()
		cells, _, err := l.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		meNoCV, annNoCV, linNoCV, meCV, annCV, linCV = 0, 0, 0, 0, 0, 0
		for _, c := range cells {
			if c.TrainSuite == c.EvalSuite {
				meNoCV += c.Mechanistic / 6
				annNoCV += c.ANN / 6
				linNoCV += c.Linear / 6
			} else {
				meCV += c.Mechanistic / 6
				annCV += c.ANN / 6
				linCV += c.Linear / 6
			}
		}
	}
	b.ReportMetric(100*meNoCV, "mech-nocv-%") // paper: all comparable…
	b.ReportMetric(100*annNoCV, "ann-nocv-%")
	b.ReportMetric(100*linNoCV, "linear-nocv-%")
	b.ReportMetric(100*meCV, "mech-cv-%") // …but ME wins under CV
	b.ReportMetric(100*annCV, "ann-cv-%")
	b.ReportMetric(100*linCV, "linear-cv-%")
}

// --- Figure 5: per-component validation against ground truth. ---

func BenchmarkFig5ComponentValidation(b *testing.B) {
	l := benchLab(b)
	var llc, branch, resource float64
	for i := 0; i < b.N; i++ {
		l.ResetModels()
		res, _, err := l.Fig5("core2", "cpu2006")
		if err != nil {
			b.Fatal(err)
		}
		llc = res.MAREByComp[sim.CompLLCLoad]
		branch = res.MAREByComp[sim.CompBranch]
		resource = res.MAREByComp[sim.CompResource]
	}
	b.ReportMetric(100*llc, "llc-comp-err-%") // paper: hardest, 9.2%
	b.ReportMetric(100*branch, "branch-comp-err-%")
	b.ReportMetric(100*resource, "resource-comp-err-%") // paper: second hardest
}

// --- Figure 6: CPI-delta stacks. ---

func BenchmarkFig6DeltaStacks(b *testing.B) {
	l := benchLab(b)
	var p4ToCore2, core2ToI7 float64
	for i := 0; i < b.N; i++ {
		l.ResetModels()
		deltas, _, err := l.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		p4ToCore2 = deltas["cpu2006:pentium4->core2"].Overall.Total()
		core2ToI7 = deltas["cpu2006:core2->corei7"].Overall.Total()
	}
	b.ReportMetric(p4ToCore2, "p4-to-core2-dCPI") // paper: large improvement
	b.ReportMetric(core2ToI7, "core2-to-i7-dCPI") // paper: memory-driven win
}

// --- Extension: one-axis parameter sweep (the scenario engine's
// model-extrapolation experiment). Shares the run store with the main
// campaign, so reruns are warm. Reports how far the base-fitted model
// drifts from the simulator at the extreme swept points. ---

func BenchmarkSweepROBExtrapolation(b *testing.B) {
	store, err := benchStore()
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{NumOps: benchOps(), FitStarts: 6, Store: store}
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSweep(uarch.CoreTwo(), "rob", []int{48, 96, 192}, "cpu2000", opts)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range res.Points {
			if e := p.Err(); e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(100*worst, "worst-extrap-err-%")
}

// --- Ablations (DESIGN.md §5): cross-validated error with one design
// choice removed; compare against mech-cv-% from Fig4. ---

func benchAblation(b *testing.B, opts core.FitOptions) {
	l := benchLab(b)
	trainObs, err := l.Observations("core2", "cpu2000")
	if err != nil {
		b.Fatal(err)
	}
	evalObs, err := l.Observations("core2", "cpu2006")
	if err != nil {
		b.Fatal(err)
	}
	meas := make([]float64, len(evalObs))
	for i, o := range evalObs {
		meas[i] = o.MeasuredCPI
	}
	params := uarch.CoreTwo().Params()
	opts.Starts = 6
	var mare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.Fit(params, trainObs, opts)
		if err != nil {
			b.Fatal(err)
		}
		mare = stats.MARE(m.PredictAll(evalObs), meas)
	}
	b.ReportMetric(100*mare, "cv-err-%")
}

func BenchmarkAblationFullModel(b *testing.B) { benchAblation(b, core.FitOptions{}) }

func BenchmarkAblationAdditiveBranch(b *testing.B) {
	benchAblation(b, core.FitOptions{AdditiveBranch: true})
}

func BenchmarkAblationConstantMLP(b *testing.B) {
	benchAblation(b, core.FitOptions{ConstantMLP: true})
}

func BenchmarkAblationUnscaledStall(b *testing.B) {
	benchAblation(b, core.FitOptions{UnscaledStall: true})
}

func BenchmarkAblationNoWindowCap(b *testing.B) {
	benchAblation(b, core.FitOptions{NoWindowCap: true})
}

// --- Substrate throughput benches. ---

// BenchmarkSimulatorThroughput measures the interval-simulation loop
// itself: the workload is materialized once and replayed through the
// allocation-free RunInto path, exactly how a grid plan's cells consume
// their shared buffers. Generation cost is measured separately by
// BenchmarkTraceGeneration. The bench-baseline CI job gates both the
// Mops/s and the allocs/op (a warmed simulator must not allocate).
func BenchmarkSimulatorThroughput(b *testing.B) {
	s, err := sim.New(uarch.CoreI7())
	if err != nil {
		b.Fatal(err)
	}
	suite := suites.CPU2006Like(suites.Options{NumOps: 100000})
	w, _ := suite.Find("gcc.1")
	src := trace.Materialize(w).Replay()
	var res sim.Result
	// Warm up: the first run builds the branch predictor.
	if err := s.RunInto(&res, src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunInto(&res, src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.NumOps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkTLBAccess isolates the hottest hierarchy structure: the
// fully-associative true-LRU TLB, rebuilt in PR 10 as an open-addressed
// page→slot table with an intrusive LRU list (O(1), allocation-free on
// hits and misses). The address stream mixes page-local runs with
// working-set hops sized past the capacity, so the fast path, the probe
// path and the evict path are all on the clock. Each iteration replays
// the whole 64K-access stream so a -benchtime 1x CI run still measures
// thousands of accesses; the bench-baseline job gates the Mops/s.
func BenchmarkTLBAccess(b *testing.B) {
	tlb, err := cache.NewTLB(uarch.CoreI7().DTLB) // 256 entries, 4K pages
	if err != nil {
		b.Fatal(err)
	}
	// Deterministic stream: 8 accesses per page on average, working set
	// 4× the TLB reach.
	r := rng.New(12345)
	addrs := make([]uint64, 1<<16)
	span := uint64(4 * 256 * 4096)
	addr := uint64(0)
	for i := range addrs {
		if r.Intn(8) == 0 {
			addr = r.Uint64n(span)
		} else {
			addr += uint64(r.Intn(512))
		}
		addrs[i] = addr
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range addrs {
			tlb.Access(a)
		}
	}
	b.ReportMetric(float64(len(addrs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkIQSchedule stresses the issue-queue scheduler — PR 10's
// calendar ring replacing the departure-time min-heap — by shrinking
// the IQ until occupancy stalls dominate: every dispatch then exercises
// popUpTo/min/push instead of sailing through an empty queue. Reported
// as whole-loop ns/op (the ring has no seam to time in isolation
// without distorting it); the bench-baseline CI job gates it.
func BenchmarkIQSchedule(b *testing.B) {
	m := uarch.CoreTwo()
	m.Name = "core2-iq8"
	m.IQSize = 8
	s, err := sim.New(m)
	if err != nil {
		b.Fatal(err)
	}
	suite := suites.CPU2006Like(suites.Options{NumOps: 100000})
	w, _ := suite.Find("mcf")
	src := trace.Materialize(w).Replay()
	var res sim.Result
	if err := s.RunInto(&res, src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunInto(&res, src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.NumOps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkSeedsParallel measures a whole seed sweep — PR 10 fans the
// replications out across the worker pool instead of running one lab
// per seed sequentially — end to end: simulation of every (seed,
// workload) run plus the per-seed fits, no store, so every iteration
// pays the full cost. The bench-baseline CI job gates the wall-clock
// ns/op.
func BenchmarkSeedsParallel(b *testing.B) {
	s, err := experiments.SeedsSpec{
		Base:  &experiments.MachineSpec{Name: "core2"},
		Suite: "cpu2000",
		Count: 4,
	}.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{NumOps: 10000, FitStarts: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSeeds(s, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) != 1 {
			b.Fatal("unexpected report shape")
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	suite := suites.CPU2000Like(suites.Options{NumOps: 100000})
	w, _ := suite.Find("mcf")
	g := trace.New(w)
	var op trace.MicroOp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		for g.Next(&op) {
		}
	}
	b.ReportMetric(float64(w.NumOps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkTraceReplay is BenchmarkTraceGeneration's counterpart for
// the materialized path: replaying a buffered stream instead of
// regenerating it. The ratio between the two is the per-machine cost a
// grid plan's shared buffers remove; the bench-baseline CI job gates
// this throughput alongside SimulatorThroughput.
func BenchmarkTraceReplay(b *testing.B) {
	suite := suites.CPU2000Like(suites.Options{NumOps: 100000})
	w, _ := suite.Find("mcf")
	buf := trace.Materialize(w)
	var op trace.MicroOp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := buf.Replay()
		for r.Next(&op) {
		}
	}
	b.ReportMetric(float64(w.NumOps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// --- Extension: multi-axis grid plans (the plan engine). The benchmark
// measures the plan's simulation phase over a 2×2 rob×mshrs grid (base
// + 4 cells × the cpu2000 workloads) with trace sharing on (replay, the
// default) and off (regen): the Mops/s gap is the wall-clock win from
// materializing each workload's µop stream once per plan instead of
// once per cell. No run store, so every iteration honestly simulates;
// the fit is identical either way and measured by the figure benches. ---

func benchGridPlan(b *testing.B, noShare bool) {
	plan, err := experiments.NewPlan(uarch.CoreTwo(), []experiments.PlanAxis{
		{Param: "rob", Values: []int{48, 96}},
		{Param: "mshrs", Values: []int{4, 8}},
	}, "cpu2000")
	if err != nil {
		b.Fatal(err)
	}
	ops := benchOps()
	suite := suites.CPU2000Like(suites.Options{NumOps: ops})
	opts := experiments.Options{NumOps: ops, NoSharedTraces: noShare}
	var stats experiments.SimStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab, err := experiments.NewCustomLab(plan.Machines, []suites.Suite{suite}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := lab.Simulate(); err != nil {
			b.Fatal(err)
		}
		stats = lab.SimStats()
	}
	perIter := float64(len(plan.Machines)*len(suite.Workloads)) * float64(ops)
	b.ReportMetric(perIter*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
	b.ReportMetric(float64(stats.TraceGens), "trace-gens")
}

func BenchmarkGridPlan(b *testing.B) {
	b.Run("replay", func(b *testing.B) { benchGridPlan(b, false) })
	b.Run("regen", func(b *testing.B) { benchGridPlan(b, true) })
}

func BenchmarkCalibrateCore2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := calibrator.Calibrate(uarch.CoreTwo()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelFit measures one model fit on its own: 48 fixed
// synthetic observations labelled by a known model with 5% noise, 12
// random restarts plus the default start, no simulation. The
// bench-baseline CI job gates its allocs/op.
func BenchmarkModelFit(b *testing.B) {
	machine := uarch.CoreTwo().Params()
	truth := &core.Model{Machine: machine, P: core.Params{
		B1: 1.2, B2: 0.5, B3: 1, B4: 20, B5: 6, B6: 0.25, B7: 0.05, B8: 0.08, B9: 1.5, B10: 30,
	}}
	r := rng.New(48)
	obs := make([]core.Observation, 48)
	for i := range obs {
		f := core.Features{
			MpuL1I:  0.01 * r.Float64() * r.Float64(),
			MpuLLCI: 0.001 * r.Float64() * r.Float64(),
			MpuITLB: 0.0005 * r.Float64() * r.Float64(),
			MpuBr:   0.015*r.Float64()*r.Float64() + 0.0001,
			MpuDL1:  0.03 * r.Float64(),
			MpuLLCD: 0.004 * r.Float64() * r.Float64(),
			MpuDTLB: 0.001 * r.Float64() * r.Float64(),
			FP:      0.35 * r.Float64(),
		}
		cpi := truth.PredictCPI(f) * (1 + 0.05*(2*r.Float64()-1))
		obs[i] = core.Observation{Name: fmt.Sprintf("synth%d", i), Feat: f, MeasuredCPI: cpi}
	}
	opts := core.FitOptions{Starts: 12}
	// One untimed fit first, so the runtime's goroutine free lists are
	// warm and allocs/op counts the fit rather than the scheduler.
	if _, err := core.Fit(machine, obs, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Fit(machine, obs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelPredict(b *testing.B) {
	m := &core.Model{Machine: uarch.CoreTwo().Params(), P: core.Params{
		B1: 1, B2: 0.5, B3: 1, B4: 10, B5: 4, B6: 0.2, B7: 0.05, B8: 0.1, B9: 1, B10: 10,
	}}
	f := core.Features{MpuL1I: 0.002, MpuBr: 0.004, MpuDL1: 0.01, MpuLLCD: 0.001,
		MpuDTLB: 0.0002, FP: 0.1}
	var v float64
	for i := 0; i < b.N; i++ {
		v += m.PredictCPI(f)
	}
	if v == 0 {
		b.Fatal("unexpected zero")
	}
}

// --- Extension: L2 stride prefetcher (disabled in the paper-stock
// machines). Reports the CPI reduction a Core 2 streamer would deliver
// on a streaming workload — an optional/extension feature of the
// substrate, not a paper artifact. ---

func BenchmarkExtensionPrefetchSpeedup(b *testing.B) {
	suite := suites.CPU2006Like(suites.Options{NumOps: 200000})
	w, _ := suite.Find("lbm")
	g := trace.New(w)
	stock := uarch.CoreTwo()
	pf := uarch.CoreTwo()
	pf.Name = "core2-pf"
	pf.Prefetch = uarch.PrefetchConfig{Enabled: true, Streams: 64, Degree: 4}
	sStock, err := sim.New(stock)
	if err != nil {
		b.Fatal(err)
	}
	sPF, err := sim.New(pf)
	if err != nil {
		b.Fatal(err)
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		r1, err := sStock.Run(g)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := sPF.Run(g)
		if err != nil {
			b.Fatal(err)
		}
		speedup = r1.Counters.CPI() / r2.Counters.CPI()
	}
	b.ReportMetric(speedup, "speedup-x")
}
