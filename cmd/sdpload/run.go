package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/slo"
	"sariadne/internal/telemetry"
)

// runConfig carries every knob of one load run.
type runConfig struct {
	scenario    string
	seed        int64
	nodes       int
	services    int
	ontologies  int
	ops         int
	warmupOps   int
	concurrency int
	ratePerSec  float64       // >0 switches to open-loop pacing
	duration    time.Duration // >0 cycles the plan open-loop until the deadline (soak mode)
	sample      time.Duration
	faultScale  time.Duration
	target      string // comma-separated sdpd addrs; empty = simnet
	token       string // bearer token for live daemons with admission on
	opTimeout   time.Duration
}

// engine executes a pre-generated op plan against a driver, tallying
// outcomes and feeding the loadgen_* histograms the sampler windows.
type engine struct {
	cfg  runConfig
	drv  driver
	plan []plannedOp

	wg   sync.WaitGroup
	once sync.Once

	mu           sync.Mutex
	results      slo.Results
	downNodes    map[int]bool
	publishNanos []int64 // non-warmup publish latencies
	queryNanos   []int64 // non-warmup query latencies
	measureStart time.Time
}

// runLoad is the whole tentpole in one call: generate the deterministic
// plan, boot (or dial) the cluster, arm the fault schedule, execute the
// plan under a telemetry sampler, and assemble the report.
func runLoad(cfg runConfig) (*slo.Report, error) {
	spec, ok := scenarios[cfg.scenario]
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (have: %s)",
			cfg.scenario, strings.Join(scenarioNames(), ", "))
	}
	w, err := gen.NewWorkload(gen.WorkloadConfig{
		Ontologies: cfg.ontologies,
		Services:   cfg.services,
		Seed:       cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		return nil, err
	}
	plan, sched, err := buildPlan(spec, w, cfg.nodes, cfg.ops, cfg.warmupOps, cfg.seed)
	if err != nil {
		return nil, err
	}

	rep := &slo.Report{
		Schema:   slo.Schema,
		Scenario: spec.name,
		Seed:     cfg.seed,
		Config: slo.Config{
			Nodes:       cfg.nodes,
			Topology:    "grid",
			Services:    cfg.services,
			Ontologies:  cfg.ontologies,
			Mode:        "closed",
			Concurrency: cfg.concurrency,
			RatePerSec:  cfg.ratePerSec,
			Ops:         cfg.ops,
			WarmupOps:   cfg.warmupOps,
			SampleMs:    cfg.sample.Milliseconds(),
			DurationMs:  cfg.duration.Milliseconds(),
			ZipfSkew:    spec.zipfSkew,
			Target:      cfg.target,
		},
	}
	if cfg.ratePerSec > 0 || cfg.duration > 0 {
		rep.Config.Mode = "open"
	}

	var drv driver
	if cfg.target != "" {
		rep.Config.Topology = "live"
		drv = newLiveCluster(strings.Split(cfg.target, ","), cfg.opTimeout, cfg.token)
	} else {
		rows, cols := gridDims(cfg.nodes)
		c, err := buildCluster(w, reg, rows, cols, cfg.seed)
		if err != nil {
			return nil, err
		}
		if spec.faults != nil {
			plan, names := spec.faults(c, cfg.faultScale)
			c.net.ApplyFaultPlan(plan)
			sched.Faults = names
		}
		drv = c
	}
	defer drv.close()
	rep.Schedule = sched

	e := &engine{cfg: cfg, drv: drv, plan: plan, downNodes: make(map[int]bool)}

	// Reset clears accumulated preload/settle observations so every ring
	// window holds only load-generated traffic.
	telemetry.Default().Reset()
	hist := telemetry.NewHistory(4096)
	sampler := telemetry.StartSampler(telemetry.Default(), cfg.sample, hist, telemetry.SamplerConfig{})
	started := time.Now()
	e.measureStart = started

	if cfg.duration > 0 {
		e.runOpenTimed(cfg.duration)
	} else if cfg.ratePerSec > 0 {
		e.runOpen()
	} else {
		e.runClosed()
	}

	sampler.Stop()
	elapsed := time.Since(started)
	rep.Results = e.results
	rep.Wall = slo.Wall{StartedAt: started.UTC(), DurationMs: elapsed.Milliseconds()}

	measured := time.Since(e.measureStart)
	rep.Points = e.points(measured)
	warmup := e.measureStart.Sub(started)
	for _, series := range []struct{ name, metric string }{
		{"query", "loadgen_query_seconds"},
		{"publish", "loadgen_publish_seconds"},
	} {
		for _, p := range telemetry.QuantileCurve(hist.Samples(), series.metric, warmup) {
			if p.Count > 0 {
				rep.Curve = append(rep.Curve, slo.CurvePoint{Series: series.name, CurvePoint: p})
			}
		}
	}
	return rep, nil
}

// runClosed keeps cfg.concurrency workers saturated: each finishes one op
// before pulling the next, so offered load adapts to service time.
func (e *engine) runClosed() {
	idx := make(chan int)
	workers := e.cfg.concurrency
	if workers < 1 {
		workers = 1
	}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker(idx)
	}
	for i := range e.plan {
		idx <- i
	}
	close(idx)
	e.wg.Wait()
}

func (e *engine) worker(idx <-chan int) {
	defer e.wg.Done()
	for i := range idx {
		e.execute(e.plan[i])
	}
}

// runOpen issues ops at a fixed rate regardless of completion — the
// queueing-delay view a closed loop hides. Each op runs in its own
// goroutine; slow responses pile up instead of throttling arrivals.
func (e *engine) runOpen() {
	interval := time.Duration(float64(time.Second) / e.cfg.ratePerSec)
	if interval <= 0 {
		interval = time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := range e.plan {
		<-tick.C
		e.wg.Add(1)
		go e.dispatch(e.plan[i])
	}
	e.wg.Wait()
}

// runOpenTimed is soak mode: cycle the plan at the open-loop rate until
// the deadline, so a run of any length replays one seeded plan. Only the
// first pass carries warmup ops; repeats are all measured.
func (e *engine) runOpenTimed(d time.Duration) {
	interval := time.Duration(float64(time.Second) / e.cfg.ratePerSec)
	if interval <= 0 {
		interval = time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for n := 0; ; n++ {
		select {
		case <-deadline.C:
			e.wg.Wait()
			return
		case <-tick.C:
		}
		op := e.plan[n%len(e.plan)]
		if n >= len(e.plan) {
			op.warmup = false
		}
		e.wg.Add(1)
		go e.dispatch(op)
	}
}

func (e *engine) dispatch(op plannedOp) {
	defer e.wg.Done()
	e.execute(op)
}

// execute runs one planned op, records its latency and outcome.
func (e *engine) execute(op plannedOp) {
	if !op.warmup {
		e.markMeasured()
	}
	ctx, cancel := context.WithTimeout(context.Background(), e.cfg.opTimeout)
	defer cancel()
	opsTotal.Inc()
	switch op.kind {
	case opPublish:
		start := time.Now()
		err := e.drv.publish(ctx, op.node, op.doc)
		lat := time.Since(start)
		publishSeconds.Observe(lat)
		e.record(op, int64(lat), err, 0, 0)
	case opQuery:
		start := time.Now()
		hits, unreachable, err := e.drv.query(ctx, op.node, op.doc)
		lat := time.Since(start)
		querySeconds.Observe(lat)
		e.record(op, int64(lat), err, hits, unreachable)
	case opChurn:
		e.mu.Lock()
		down := !e.downNodes[op.node]
		e.downNodes[op.node] = down
		e.results.OK++
		e.mu.Unlock()
		e.drv.churn(op.node, down)
	}
}

// markMeasured stamps the start of the measured (post-warmup) phase once.
func (e *engine) markMeasured() {
	e.once.Do(func() {
		e.mu.Lock()
		e.measureStart = time.Now()
		e.mu.Unlock()
	})
}

func (e *engine) record(op plannedOp, nanos int64, err error, hits, unreachable int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case err != nil:
		e.results.Failed++
	case op.kind == opQuery && hits == 0:
		e.results.Empty++
	default:
		e.results.OK++
	}
	if err != nil {
		opErrorsTotal.Inc()
	}
	e.results.Hits += hits
	if unreachable > 0 {
		e.results.Partial++
	}
	if op.warmup {
		return
	}
	if op.kind == opPublish {
		e.publishNanos = append(e.publishNanos, nanos)
	} else {
		e.queryNanos = append(e.queryNanos, nanos)
	}
}

// points aggregates each series' non-warmup latencies into the
// BENCH-schema end-of-run points, with exact nearest-rank percentiles
// (the curve uses bucketed windows; the point is the precise aggregate).
func (e *engine) points(measured time.Duration) []slo.Point {
	var out []slo.Point
	for _, s := range []struct {
		name  string
		nanos []int64
	}{
		{"query", e.queryNanos},
		{"publish", e.publishNanos},
	} {
		if len(s.nanos) == 0 {
			continue
		}
		sorted := append([]int64(nil), s.nanos...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		p := slo.Point{
			Services:  e.cfg.services,
			Series:    s.name,
			Reps:      len(sorted),
			P50Nanos:  exactPercentile(sorted, 0.50),
			P95Nanos:  exactPercentile(sorted, 0.95),
			P99Nanos:  exactPercentile(sorted, 0.99),
			P999Nanos: exactPercentile(sorted, 0.999),
		}
		if secs := measured.Seconds(); secs > 0 {
			p.OpsPerSec = float64(len(sorted)) / secs
		}
		out = append(out, p)
	}
	return out
}

// exactPercentile is the nearest-rank percentile of a sorted slice.
func exactPercentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
