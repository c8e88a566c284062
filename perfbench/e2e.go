package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// setupReps is how many times a run sets the daemon up from scratch;
// setup_s is their median, and the last one serves the timed phase.
const setupReps = 3

// env is where a run finds mecpid and keeps its scratch files.
type env struct {
	mecpid  string
	runDir  string // daemon stores and logs, removed when the run ends
	workers int    // mecpid -workers and GOMAXPROCS
}

// setUp starts a daemon on a fresh run store, replays the workload's
// set-up requests and the warm-up op, and returns the daemon with the
// time from launch until it was warm.
func setUp(e env, seq *sequence, warmup op, dir string) (*daemon, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := startDaemon(e.mecpid, dir, e.workers)
	if err != nil {
		return nil, 0, err
	}
	for _, o := range slices.Concat(seq.setup, []op{warmup}) {
		status, body, err := d.do(o.path, o.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil {
			_, err = checkAnswer(o, body)
		}
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("set-up request %s %s: %w", o.path, o.body, err)
		}
	}
	return d, time.Since(start), nil
}

// e2eReport is what the untraced closed-loop run measured.
type e2eReport struct {
	setupS     []float64
	latMS      []float64 // one per successful timed op
	attempted  int
	failed     int
	elapsed    time.Duration
	peakRSSMB  float64
	mare       float64 // mean model error of the digest prefix's distinct requests, as a fraction
	digest     string  // SHA-256 over the digest prefix's answers
	digestOps  int
	problems   problems
	connDialed int64
}

// problems collects failed checks, one line each; the first twenty are
// kept, which is plenty to diagnose a run.
type problems []string

func (p *problems) add(format string, args ...any) {
	if len(*p) < 20 {
		*p = append(*p, fmt.Sprintf(format, args...))
	}
}

// runEndToEnd sets the daemon up setupReps times, then drives the last
// one in a closed loop: one client, one keep-alive connection, the next
// request sent only when the previous answer has been read. The timed
// phase lasts seconds, and at least until the digest prefix is done.
func runEndToEnd(e env, seq *sequence, seconds int) (*e2eReport, error) {
	rep := &e2eReport{digestOps: seq.digestOps}
	warmup := seq.next()
	var d *daemon
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(e.runDir, fmt.Sprintf("setup%d", i))
		dd, took, err := setUp(e, seq, warmup, dir)
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, took.Seconds())
		if i < setupReps-1 {
			dd.stop()
			os.RemoveAll(dir)
		} else {
			d = dd
		}
	}
	defer d.stop()

	before, err := d.stats()
	if err != nil {
		return nil, err
	}

	// Warm answers must repeat their first answer byte for byte; cold
	// requests must never repeat at all.
	first := map[string][sha256.Size]byte{}
	errOf := map[string]float64{}
	digest := sha256.New()
	var want sourcing
	// A repeated warm request adds no information about the model, so
	// each distinct request of the prefix weighs once in the error.
	var prefixKeys []string
	inPrefix := map[string]bool{}
	limit := time.Duration(seconds) * time.Second
	start := time.Now()
	for i := 1; i <= seq.digestOps || time.Since(start) < limit; i++ {
		o := seq.next()
		rep.attempted++
		t0 := time.Now()
		status, body, err := d.do(o.path, o.body)
		lat := time.Since(t0)
		want.add(o.want)

		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, body)
		}
		if err == nil {
			key := string(o.body)
			sum := sha256.Sum256(body)
			if prev, seen := first[key]; !seen {
				var opErr float64
				if opErr, err = checkAnswer(o, body); err == nil {
					first[key] = sum
					errOf[key] = opErr
				}
			} else if o.cold {
				err = fmt.Errorf("cold request repeated")
			} else if prev != sum {
				err = fmt.Errorf("warm answer differs from its first answer")
			}
		}
		if err != nil {
			rep.failed++
			rep.problems.add("op %d %s: %v", i, o.path, err)
			continue
		}
		rep.latMS = append(rep.latMS, float64(lat.Nanoseconds())/1e6)
		if i <= seq.digestOps {
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(len(body)))
			digest.Write(n[:])
			digest.Write(body)
			if key := string(o.body); !inPrefix[key] {
				inPrefix[key] = true
				prefixKeys = append(prefixKeys, key)
			}
		}
	}
	rep.elapsed = time.Since(start)
	for _, k := range prefixKeys { // in first-seen order, so the sum is reproducible
		rep.mare += errOf[k] / float64(len(prefixKeys))
	}
	rep.digest = fmt.Sprintf("%x", digest.Sum(nil))

	after, err := d.stats()
	if err != nil {
		return nil, err
	}
	if rep.peakRSSMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	got := sourcing{
		fits:      after.Models.Fits - before.Models.Fits,
		simulated: after.Sims.Simulated - before.Sims.Simulated,
		storeHits: after.Sims.StoreHits - before.Sims.StoreHits,
		modelHits: after.Models.Hits - before.Models.Hits,
	}
	if got != want {
		rep.problems.add("timed ops cost %d fits / %d simulations / %d store hits / %d model hits, want %d / %d / %d / %d",
			got.fits, got.simulated, got.storeHits, got.modelHits, want.fits, want.simulated, want.storeHits, want.modelHits)
	}
	if want.simulated == 0 && after.Sims.TraceGens != before.Sims.TraceGens {
		rep.problems.add("warm ops generated %d traces", after.Sims.TraceGens-before.Sims.TraceGens)
	}
	served := (after.Requests.Predict - before.Requests.Predict) + (after.Requests.Plan - before.Requests.Plan)
	if served != int64(rep.attempted) {
		rep.problems.add("daemon served %d predict/plan requests for %d attempted ops", served, rep.attempted)
	}
	if rep.connDialed = d.dials.Load(); rep.connDialed != 1 {
		rep.problems.add("client dialled %d connections, want one keep-alive connection", rep.connDialed)
	}
	return rep, nil
}
