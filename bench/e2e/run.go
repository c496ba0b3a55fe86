package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// metricDef describes one end-to-end metric: the glossary the report, the
// A/A table and BENCHMARK.json share.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // allowed worsening before it counts as a regression
	// sliced metrics are read per 100 ms slice of the measured laps and
	// reported as the median over the undisturbed slices.
	sliced bool
	// layer is empty for a metric BENCHMARK.json gates as end_to_end. The
	// others could not hold their bound on the reference host (README,
	// "What is gated"): they are printed by every run all the same, and
	// recorded by the driver, ungated, under this per-layer name.
	layer string
}

// endToEnd lists the metrics in report order. restart_s is measured on the
// durable workload only. setup_s cannot hold 10% either (README, "What is
// gated"), but the driver's contract requires it among the gated metrics
// and tells it to carry the widest bound; no claim may rest on it.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "query_p50_us", unit: "us", bound: 0.07, sliced: true, layer: "client.query_p50_us"},
	{name: "query_p90_us", unit: "us", bound: 0.10, sliced: true, layer: "client.query_p90_us"},
	{name: "publish_p50_us", unit: "us", bound: 0.07, sliced: true, layer: "client.publish_p50_us"},
	{name: "ops_s", unit: "ops/s", higher: true, bound: 0.07, sliced: true, layer: "client.ops_s"},
	{name: "daemon_cpu_us_per_op", unit: "us", bound: 0.07, layer: "sdpd.cpu_us_per_op"},
	{name: "daemon_rss_mb", unit: "MiB", bound: 0.10},
	{name: "restart_s", unit: "s", bound: 0.10, layer: "store.restart_s"},
}

const (
	minLaps   = 6
	coldBoots = 3
	// defaultSeconds is -seconds when not given, and BENCHMARK.json's
	// run_seconds.
	defaultSeconds = 8
)

// laps is how many measured laps -seconds buys on this workload: the
// window divided by the workload's frozen lap length, never fewer than
// minLaps.
func (sp spec) laps(seconds int) int {
	return max(minLaps, int(math.Round(float64(seconds)/sp.lapSeconds)))
}

// value is one reported metric with the readings behind it.
type value struct {
	v       float64
	unit    string
	samples []float64 // per slice, lap or boot
	how     string    // estimator, for the report
}

// result is what one workload run reports.
type result struct {
	workload  string
	seed      int64
	laps      int
	lapOps    int
	attempted int
	failed    int
	errors    []string
	metrics   map[string]value
	order     []string // metric names in report order
}

func (r *result) set(name, unit, how string, v float64, samples []float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]value)
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = value{v: v, unit: unit, samples: samples, how: how}
}

// correct reports whether every op passed its oracle check and every
// metric is a usable number.
func (r *result) correct() bool {
	if r.failed > 0 || r.attempted == 0 {
		return false
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			return false
		}
	}
	return true
}

// fold adds a lap's op counts and its first few failures to the result.
func (r *result) fold(lr *lapResult) {
	r.attempted += lr.attempted
	r.failed += lr.failed
	if len(r.errors) < 5 {
		r.errors = append(r.errors, lr.errs...)
	}
}

// environment is what every workload of one invocation shares.
type environment struct {
	repoRoot string
	runDir   string // removed on exit unless keep
	outDir   string // where span files go
	bin      string
	keep     bool
}

// runWorkload is one run of one workload: cold boots (setup_s), a
// discarded warm-up lap, on the durable workload SIGKILL restarts
// (restart_s) and a second warm-up for the restarted process, then the
// measured laps. A traced run boots once and, after the measured laps,
// goes on to the traced laps and the in-process ladder that yield the
// per-layer metrics.
func runWorkload(env *environment, sp spec, seed int64, seconds int, traced bool) (*result, error) {
	laps := sp.laps(seconds)
	w, err := generate(sp, seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(env.runDir, fmt.Sprintf("%s-seed%d", sp.name, seed))
	c, err := newCluster(w, env.bin, dir)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	if !env.keep {
		defer os.RemoveAll(dir)
	}
	res := &result{workload: sp.name, seed: seed, laps: laps, lapOps: w.lapOps()}

	n := coldBoots
	if traced {
		n = 1
	}
	var setups []float64
	for i := 0; i < n; i++ {
		c.kill()
		if err := c.removeState(); err != nil {
			return nil, err
		}
		d, err := c.boot()
		if err != nil {
			return nil, fmt.Errorf("%s: boot: %w", sp.name, err)
		}
		setups = append(setups, d.Seconds())
	}
	res.set("setup_s", "s", fmt.Sprintf("fastest of %d cold boots", n), minOf(setups), setups)

	warm := func() error {
		r, err := newRunner(w, c)
		if err != nil {
			return err
		}
		defer r.close()
		lr, err := r.lap()
		if err != nil {
			return err
		}
		res.fold(lr)
		return nil
	}
	if err := warm(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", sp.name, err)
	}
	if sp.durable {
		var restarts []float64
		for i := 0; i < coldBoots; i++ {
			d, err := c.restart()
			if err != nil {
				return nil, fmt.Errorf("%s: restart: %w", sp.name, err)
			}
			restarts = append(restarts, d.Seconds())
		}
		res.set("restart_s", "s", fmt.Sprintf("fastest of %d SIGKILL restarts", coldBoots), minOf(restarts), restarts)
		if err := warm(); err != nil {
			return nil, fmt.Errorf("%s: warm-up after restart: %w", sp.name, err)
		}
	}

	r, err := newRunner(w, c)
	if err != nil {
		return nil, err
	}
	defer r.close()
	var all []slice
	var cpu []float64
	for i := 0; i < laps; i++ {
		lr, err := r.lap()
		if err != nil {
			return nil, fmt.Errorf("%s: lap %d: %w", sp.name, i+1, err)
		}
		res.fold(lr)
		all = append(all, lr.slices()...)
		cpu = append(cpu, lr.cpuPerOp())
	}
	rss, err := peakRSSMiB(c.pids())
	if err != nil {
		return nil, err
	}
	quiet := undisturbed(all)
	for _, m := range endToEnd {
		switch {
		case m.sliced:
			res.set(m.name, m.unit, fmt.Sprintf("median of %d undisturbed slices; all %d slices", len(quiet), len(all)),
				median(readings(quiet, m.name)), readings(all, m.name))
		case m.name == "daemon_cpu_us_per_op":
			res.set(m.name, m.unit, fmt.Sprintf("Q1 of %d laps", laps), goodQuartile(cpu, m.higher), cpu)
		case m.name == "daemon_rss_mb":
			res.set(m.name, m.unit, "sum of VmHWM after the last lap", rss, nil)
		}
	}
	if traced {
		if err := traceWorkload(env, res, r, dir); err != nil {
			return nil, err
		}
	}
	return res, nil
}
