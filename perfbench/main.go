// Command perfbench is the repository benchmark. It starts a real
// mecpid child process per run and drives it in a closed loop — one
// client, one keep-alive loopback connection, each request sent when
// the previous answer is in — over one of four workloads:
//
//	predict_cold  whole-suite predict for a never-seen derived machine (fit-heavy)
//	plan_cold     2×2 plan grid of never-simulated cells (simulator- and trace-bound)
//	predict_warm  whole-suite predict served from the model cache
//	plan_warm     repeat of a set-up plan, every run a run-store hit
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// replays the same ops through an in-process replica with a span at
// every layer call, checks the replica answers exactly what the daemon
// answered, and prints the per-layer breakdown. The last line of
// standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. See README.md beside this file.
//
// Usage (run.sh builds mecpid and this command first):
//
//	perfbench -mecpid BIN -workload NAME -seed N -seconds S -trace 0|1 [-out DIR]
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every op's input is a pure function of it")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced replica, per-layer metrics")
	mecpid := flag.String("mecpid", "", "mecpid binary to benchmark")
	out := flag.String("out", ".bench_build", "directory for run stores, spans and result files")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced == 1, *mecpid, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds int, traced bool, mecpid, out string, stdout io.Writer) error {
	if mecpid == "" {
		return errors.New("-mecpid is required")
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	seq, err := newSequence(workload, seed)
	if err != nil {
		return err
	}
	// Two workers at most, and never more than the host has cores.
	workers := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(workers)
	runDir := filepath.Join(out, "run", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	defer os.RemoveAll(runDir)
	e := env{mecpid: mecpid, runDir: runDir, workers: workers}

	info := map[string]any{
		"host": map[string]any{
			"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": workers, "go": runtime.Version(),
		},
		"settings": map[string]any{
			"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
			"mecpid": fmt.Sprintf("-workers %d -ops %d -starts %d", workers, daemonOps, daemonStarts),
		},
	}
	res := result{Metrics: map[string]metric{}}
	var problems []string
	if traced {
		rep, err := runTraced(e, seq, seconds, filepath.Join(runDir, "replica"))
		if err != nil {
			return err
		}
		res.Attempted, res.Failed, problems = rep.attempted, rep.failed, rep.problems
		res.Metrics = perLayerMetrics(rep)
		spans := filepath.Join(out, "trace", workload+".spans.jsonl")
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return err
		}
		if err := rep.tr.write(spans); err != nil {
			return err
		}
		info["counts"] = map[string]any{
			"ops": rep.ops, "spans": len(rep.tr.spans), "numbersComparedEqual": rep.floatsEqual, "spanFile": spans,
		}
	} else {
		rep, err := runEndToEnd(e, seq, seconds)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed, problems = rep.attempted, rep.failed, rep.problems
		ok := len(rep.latMS)
		res.Metrics["latency_p50_ms"] = metric{median(rep.latMS), "ms"}
		res.Metrics["throughput_ops_s"] = metric{float64(ok) / rep.elapsed.Seconds(), "1/s"}
		res.Metrics["peak_rss_mb"] = metric{rep.peakRSSMB, "MB"}
		res.Metrics["model_mare_pct"] = metric{100 * rep.mare, "%"}
		res.Metrics["setup_s"] = metric{median(rep.setupS), "s"}
		counts := map[string]any{
			"ops": rep.attempted, "latencySamples": ok, "digestOps": rep.digestOps,
			"setupRuns": len(rep.setupS), "connections": rep.connDialed,
		}
		if p90, err := percentile(rep.latMS, 0.90); err == nil {
			counts["latency_p90_ms"] = p90
		} else {
			counts["latency_p90_ms"] = err.Error()
		}
		info["counts"] = counts
		info["responseSHA256"] = rep.digest
		if rep.failed == 0 {
			msg, err := checkDigest(out, workload, seed, mecpid, rep.digest, rep.digestOps)
			if err != nil {
				return err
			}
			if msg != "" {
				problems = append(problems, msg)
			}
		}
	}
	res.Correct = len(problems) == 0 && res.Failed == 0 && res.Attempted > 0
	info["correct"] = res.Correct
	info["problems"] = problems
	info["metrics"] = res.Metrics
	if err := writeResultFile(out, workload, seed, traced, info); err != nil {
		return err
	}

	w := bufio.NewWriter(stdout)
	for _, k := range []string{"host", "settings", "counts"} {
		line, _ := json.Marshal(info[k])
		fmt.Fprintf(w, "# %s %s\n", k, line)
	}
	if d, ok := info["responseSHA256"]; ok {
		fmt.Fprintf(w, "# response_sha256 %s\n", d)
	}
	for _, p := range problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// perLayerMetrics condenses the traced run: mean time per call of each
// layer (set-up included, so set-up-only layers still read), layer
// rates, per-op work counts, each module's self-time share of the op
// wall time, the daemon's CPU per op and the cost of tracing.
func perLayerMetrics(rep *tracedReport) map[string]metric {
	m := map[string]metric{}
	calls := map[string]int{}
	busy := map[string]int64{}
	selfByModule := map[string]int64{}
	var opWall int64
	self := rep.tr.selfTimes()
	for i, s := range rep.tr.spans {
		calls[s.Name]++
		busy[s.Name] += s.End - s.Start
		if s.Op >= 1 {
			selfByModule[module(s.Name)] += self[i]
			if s.Parent < 0 {
				opWall += s.End - s.Start
			}
		}
	}
	for _, l := range []struct{ metric, span, unit string }{
		{"core.fit_ms", "core.fit", "ms"},
		{"core.observation_us", "core.observation", "us"},
		{"core.stack_us", "core.stack", "us"},
		{"sim.run_ms", "sim.run", "ms"},
		{"trace.materialize_ms", "trace.materialize", "ms"},
		{"runstore.get_us", "runstore.get", "us"},
		{"runstore.put_us", "runstore.put", "us"},
		{"experiments.fitted_hit_us", "experiments.fitted_hit", "us"},
		{"experiments.extrapolate_ms", "experiments.extrapolate", "ms"},
		{"uarch.resolve_us", "uarch.resolve", "us"},
		{"suites.build_us", "suites.build", "us"},
		{"serve.decode_us", "serve.decode", "us"},
		{"serve.encode_us", "serve.encode", "us"},
	} {
		per := 1e3
		if l.unit == "ms" {
			per = 1e6
		}
		m[l.metric] = metric{ratio(float64(busy[l.span])/per, float64(calls[l.span])), l.unit}
	}
	m["sim.mops_s"] = metric{ratio(float64(rep.total.simOps)*1e3, float64(busy["sim.run"])), "Mops/s"}
	m["trace.gen_mops_s"] = metric{ratio(float64(rep.total.genOps)*1e3, float64(busy["trace.materialize"])), "Mops/s"}

	ops := float64(rep.ops)
	n := rep.n
	m["experiments.sims_per_op"] = metric{ratio(float64(n.simulated), ops), "count"}
	m["experiments.trace_gens_per_op"] = metric{ratio(float64(n.traceGens), ops), "count"}
	m["experiments.fits_per_op"] = metric{ratio(float64(n.fits), ops), "count"}
	m["serve.response_kb"] = metric{ratio(float64(n.respBytes)/1e3, ops), "kB"}
	// An op that looks nothing up in the store missed nothing.
	hitRatio := 1.0
	if lookups := n.storeHits + n.storeMisses; lookups > 0 {
		hitRatio = float64(n.storeHits) / float64(lookups)
	}
	m["runstore.hit_ratio"] = metric{hitRatio, "ratio"}
	for _, mod := range []string{"core", "sim", "trace", "runstore", "experiments", "uarch", "suites", "serve", "bench"} {
		m[mod+".self_pct"] = metric{100 * ratio(float64(selfByModule[mod]), float64(opWall)), "%"}
	}
	m["mecpid.cpu_ms_per_op"] = metric{float64(rep.daemonCPU.Nanoseconds()) / 1e6, "ms"}
	m["bench.tracing_overhead_pct"] = metric{100 * (ratio(float64(rep.tracedNs), float64(rep.untracedNs)) - 1), "%"}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the run never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses a percentile with fewer than minBeyond samples beyond it: a
// tail read off a handful of samples is noise.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	k := max(1, int(math.Ceil(p*float64(n)))) // 1-based rank
	if n-k < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*p, minBeyond, max(0, n-k), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], nil
}

// median returns the middle of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// checkDigest compares the run's response digest with the one an
// earlier run of the same binaries and seed recorded, and records it
// if it is the first. It returns a failed-check message on mismatch.
func checkDigest(out, workload string, seed uint64, mecpid, digest string, ops int) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, bin := range []string{mecpid, self} {
		f, err := os.Open(bin)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	key := fmt.Sprintf("%s seed=%d ops=%d build=%x", workload, seed, ops, h.Sum(nil)[:8])
	path := filepath.Join(out, "digests.json")
	seen := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &seen); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
	}
	if prev, ok := seen[key]; ok {
		if prev != digest {
			return fmt.Sprintf("response digest %s differs from an earlier run's %s (%s)", digest, prev, key), nil
		}
		return "", nil
	}
	seen[key] = digest
	data, err := json.MarshalIndent(seen, "", "  ")
	if err != nil {
		return "", err
	}
	return "", os.WriteFile(path, data, 0o644)
}

func writeResultFile(out, workload string, seed uint64, traced bool, info map[string]any) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t)), data, 0o644)
}
