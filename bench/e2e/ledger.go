package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layerDef is one per-layer metric. None is gated; they explain the
// end-to-end numbers.
type layerDef struct {
	name   string
	unit   string
	higher bool
}

// perLayer lists every per-layer metric a traced run reports: first the
// end-to-end metrics that are recorded ungated, then the live ledger, then
// the in-process ladder. A layer that does no work on a workload (the
// store without -state, discovery without -federate) reads zero there.
var perLayer = append(ungated(), []layerDef{
	{name: "trace.overhead_pct", unit: "%"},
	{name: "loadgen.cpu_us_per_op", unit: "us"},
	{name: "loadgen.send_us_per_op", unit: "us"},
	{name: "loadgen.wait_us_per_op", unit: "us"},
	{name: "loadgen.verify_us_per_op", unit: "us"},
	{name: "sdpd.request_bytes_per_query", unit: "bytes"},
	{name: "sdpd.reply_bytes_per_query", unit: "bytes"},
	{name: "sdpd.hits_per_query", unit: "count"},
	{name: "sdpd.handle_us_per_op", unit: "us"},
	{name: "sdpd.frontend_residual_us", unit: "us"},
	{name: "profile.parse_us_per_op", unit: "us"},
	{name: "profile.parses_per_op", unit: "count"},
	{name: "registry.query_us_per_query", unit: "us"},
	{name: "registry.insert_us_per_publish", unit: "us"},
	{name: "registry.root_probes_per_query", unit: "count"},
	{name: "match.ops_per_query", unit: "count"},
	{name: "store.append_us_per_publish", unit: "us"},
	{name: "store.syncs_per_publish", unit: "count"},
	{name: "store.bytes_per_publish", unit: "bytes"},
	{name: "discovery.query_us_per_query", unit: "us"},
	{name: "discovery.local_match_us_per_query", unit: "us"},
	{name: "discovery.forwards_per_query", unit: "count"},
	{name: "discovery.pruned_per_query", unit: "count", higher: true},
	{name: "discovery.retries_per_query", unit: "count"},
	{name: "discovery.hedges_per_query", unit: "count"},
	{name: "discovery.summary_pushes_per_publish", unit: "count"},
	{name: "transport.bytes_per_query", unit: "bytes"},
	{name: "transport.frames_per_query", unit: "count"},
	{name: "transport.send_us_per_frame", unit: "us"},
	{name: "bloom.summary_bytes", unit: "bytes"},
	{name: "bloom.marshals_per_publish", unit: "count"},
	{name: "telemetry.gc_pause_ms_per_s", unit: "ms/s"},
	{name: "telemetry.gc_cycles_per_kop", unit: "count"},
	{name: "ontology.decode_ms_per_ontology", unit: "ms"},
	{name: "ontology.classify_ms_per_ontology", unit: "ms"},
	{name: "codes.encode_ms_per_ontology", unit: "ms"},
	{name: "profile.unmarshal_request_us", unit: "us"},
	{name: "profile.unmarshal_request_allocs", unit: "count"},
	{name: "profile.unmarshal_advert_us", unit: "us"},
	{name: "match.semantic_distance_ns", unit: "ns"},
	{name: "registry.query_us", unit: "us"},
	{name: "registry.query_allocs", unit: "count"},
	{name: "registry.linear_query_us", unit: "us"},
	{name: "registry.register_us", unit: "us"},
	{name: "discovery.backend_query_us", unit: "us"},
	{name: "discovery.backend_query_self_us", unit: "us"},
	{name: "discovery.backend_register_us", unit: "us"},
	{name: "discovery.keys_us", unit: "us"},
	{name: "discovery.codec_query_us", unit: "us"},
	{name: "bloom.rebuild_us", unit: "us"},
	{name: "transport.udp_roundtrip_us", unit: "us"},
	{name: "store.append_nosync_us", unit: "us"},
	{name: "store.append_sync_us", unit: "us"},
	{name: "store.replay_us_per_record", unit: "us"},
	{name: "tenant.authenticate_ns", unit: "ns"},
	{name: "tenant.admit_publish_ns", unit: "ns"},
}...)

// ungated are the end-to-end metrics BENCHMARK.json lists per layer: a
// traced run reports each under its layer name, from its untraced laps.
func ungated() []layerDef {
	var out []layerDef
	for _, m := range endToEnd {
		if m.layer != "" {
			out = append(out, layerDef{m.layer, m.unit, m.higher})
		}
	}
	return out
}

const tracedLaps = 2

// traceWorkload is the second half of a traced run, after the measured
// laps on the same daemons: tracedLaps laps with client-side spans on and
// the daemons' /metrics scraped before and after each; last the
// in-process ladder. It adds the per-layer metrics to res.
func traceWorkload(env *environment, res *result, r *runner, dir string) error {
	w, c := r.w, r.c
	for _, m := range endToEnd {
		if m.layer == "" {
			continue
		}
		// restart_s exists on the durable workload alone; like every layer
		// that does no work on a workload, the store reads zero elsewhere.
		v := res.metrics[m.name]
		res.set(m.layer, m.unit, v.how, v.v, nil)
	}
	tr := &tracer{}
	led := ledger{daemons: len(c.daemons), delta: make(scrape)}
	r.tracing = true
	var slices []slice
	for i := 0; i < tracedLaps; i++ {
		before, err := c.scrapeAll()
		if err != nil {
			return err
		}
		size0 := c.stateBytes()
		lr, err := r.lap()
		if err != nil {
			return fmt.Errorf("%s: traced lap %d: %w", w.spec.name, i+1, err)
		}
		after, err := c.scrapeAll()
		if err != nil {
			return err
		}
		res.fold(lr)
		led.delta.add(after.sub(before))
		led.stateGrowth += c.stateBytes() - size0
		led.foldLap(lr)
		slices = append(slices, lr.slices()...)
		r.spans(tr, lr)
	}
	lifetime, err := c.settledScrape()
	if err != nil {
		return err
	}
	c.kill()

	set := func(name, unit string, v float64) { res.set(name, unit, "", v, nil) }
	plain := res.metrics["query_p50_us"].v
	set("trace.overhead_pct", "%", 100*(median(readings(undisturbed(slices), "query_p50_us"))-plain)/plain)
	led.report(tr, lifetime, set)
	if err := runLadder(w, tr, dir, set); err != nil {
		return fmt.Errorf("%s: ladder: %w", w.spec.name, err)
	}
	path := filepath.Join(env.outDir, fmt.Sprintf("trace-%s.json", w.spec.name))
	if err := tr.writeFile(path); err != nil {
		return err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	return nil
}

// stateBytes is the total size of the cluster's store files.
func (c *cluster) stateBytes() int64 {
	var n int64
	for _, d := range c.daemons {
		if d.state == "" {
			continue
		}
		if fi, err := os.Stat(d.state); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// settledScrape returns the summed /metrics of the cluster once every
// daemon's runtime collector has ticked after the load stopped. The
// runtime_* series (GC cycles and pauses) only move on the sampler's
// cadence, five seconds by default, so a scrape right after the last
// lap would miss the tail of the run.
func (c *cluster) settledScrape() (scrape, error) {
	first := make([]float64, len(c.daemons))
	for i, d := range c.daemons {
		s, err := scrapeDaemon(d)
		if err != nil {
			return nil, err
		}
		first[i] = s["runtime_uptime_seconds"]
	}
	deadline := time.Now().Add(8 * time.Second)
	for i, d := range c.daemons {
		for {
			s, err := scrapeDaemon(d)
			if err != nil {
				return nil, err
			}
			if s["runtime_uptime_seconds"] != first[i] {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("daemon %d: runtime collector never ticked", i)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return c.scrapeAll()
}

// ledger accumulates what the traced laps saw from outside the daemons:
// counter deltas from /metrics, socket bytes, op counts.
type ledger struct {
	daemons            int
	delta              scrape
	stateGrowth        int64
	queries, publishes int
	queryTx, queryRx   int64
	hits               int
	latencySum         float64 // us, all verified ops
	loadgenCPU         time.Duration
}

func (l *ledger) foldLap(lr *lapResult) {
	l.queries += lr.queries
	l.publishes += lr.publishes
	l.queryTx += lr.queryTx
	l.queryRx += lr.queryRx
	l.hits += lr.hits
	for _, sm := range lr.samples {
		l.latencySum += sm.us
	}
	l.loadgenCPU += lr.loadgenCPU
}

// spans turns the lap's op records into spans: one per connection (the
// two run side by side, so each is a root), under it one per op with its
// send and wait halves as children, and the post-lap verification of
// the same op beside it. A connection's self time is what the load
// generator spends between ops.
func (r *runner) spans(tr *tracer, lr *lapResult) {
	opID := 0
	for ci := range r.conns {
		recs := r.recs[ci]
		lap := tr.add("lap.conn", lr.start, recs[len(recs)-1].end, 0, 0)
		for i, o := range r.w.plan[ci] {
			rec := &r.recs[ci][i]
			opID++
			if rec.err != nil {
				continue
			}
			name := "op.query"
			if o.kind == opPublish {
				name = "op.publish"
			}
			id := tr.add(name, rec.start, rec.end, lap, opID)
			tr.add("send", rec.start, rec.sent, id, opID)
			tr.add("wait", rec.sent, rec.end, id, opID)
			tr.add("verify", rec.verifyStart, rec.verifyEnd, 0, opID)
		}
	}
}

// report derives the live-ledger metrics. Times come from histogram sums
// (seconds) and are reported in microseconds per client op of the kind
// that causes the work.
func (l *ledger) report(tr *tracer, lifetime scrape, set func(name, unit string, v float64)) {
	d := l.delta
	q, p := float64(l.queries), float64(l.publishes)
	n := q + p
	per := func(v, by float64) float64 {
		if by == 0 {
			return 0
		}
		return v / by
	}
	us := func(key string, by float64) float64 { return per(d[key]*1e6, by) }
	durs := tr.durations()
	spanUs := func(name string) float64 { return float64(tr.meanByName(name, durs).Nanoseconds()) / 1e3 }

	set("loadgen.cpu_us_per_op", "us", per(float64(l.loadgenCPU.Microseconds()), n))
	set("loadgen.send_us_per_op", "us", spanUs("send"))
	set("loadgen.wait_us_per_op", "us", spanUs("wait"))
	set("loadgen.verify_us_per_op", "us", spanUs("verify"))
	set("sdpd.request_bytes_per_query", "bytes", per(float64(l.queryTx), q))
	set("sdpd.reply_bytes_per_query", "bytes", per(float64(l.queryRx), q))
	set("sdpd.hits_per_query", "count", per(float64(l.hits), q))
	handle := us("sdpd_request_seconds_sum", d["sdpd_request_seconds_count"])
	set("sdpd.handle_us_per_op", "us", handle)
	set("sdpd.frontend_residual_us", "us", per(l.latencySum, n)-handle)
	set("profile.parse_us_per_op", "us", us("profile_parse_seconds_sum", n))
	set("profile.parses_per_op", "count", per(d["profile_parse_seconds_count"], n))
	set("registry.query_us_per_query", "us", us("registry_query_seconds_sum", q))
	set("registry.insert_us_per_publish", "us", us("registry_insert_seconds_sum", p))
	set("registry.root_probes_per_query", "count", per(d["registry_root_probes_total"], q))
	set("match.ops_per_query", "count", per(d["match_encoded_ops_total"]+d["match_reasoner_ops_total"], q))
	set("store.append_us_per_publish", "us", us("store_append_seconds_sum", p))
	set("store.syncs_per_publish", "count", per(d["store_syncs_total"], p))
	set("store.bytes_per_publish", "bytes", per(float64(l.stateGrowth), p))
	set("discovery.query_us_per_query", "us", us("discovery_query_seconds_sum", q))
	set("discovery.local_match_us_per_query", "us", us("discovery_local_match_seconds_sum", q))
	set("discovery.forwards_per_query", "count", per(d["discovery_forwards_sent_total"], q))
	set("discovery.pruned_per_query", "count", per(d["discovery_forwards_pruned_total"], q))
	set("discovery.retries_per_query", "count", per(d["discovery_forward_retries_total"], q))
	set("discovery.hedges_per_query", "count", per(d["discovery_forward_hedges_total"], q))
	set("discovery.summary_pushes_per_publish", "count", per(d["discovery_summary_pushes_total"], p))
	set("transport.bytes_per_query", "bytes", per(d["transport_bytes_sent_total"], q))
	set("transport.frames_per_query", "count", per(d["transport_frames_sent_total"], q))
	set("transport.send_us_per_frame", "us", us("transport_send_seconds_sum", d["transport_send_seconds_count"]))
	set("bloom.summary_bytes", "bytes", per(d["bloom_summary_bytes_sum"], d["bloom_summary_bytes_count"]))
	set("bloom.marshals_per_publish", "count", per(d["bloom_marshals_total"], p))
	// GC figures cover each daemon's whole life (preload, warm-up, laps):
	// the runtime collector's cadence is coarser than a lap.
	// lifetime sums the daemons, so uptime is divided back to one wall
	// clock: pause milliseconds, all daemons together, per second.
	set("telemetry.gc_pause_ms_per_s", "ms/s",
		per(lifetime["runtime_gc_pause_seconds_sum"]*1e3, lifetime["runtime_uptime_seconds"]/float64(l.daemons)))
	set("telemetry.gc_cycles_per_kop", "count", per(lifetime["runtime_gc_cycles_total"]*1e3, lifetime["sdpd_requests_total"]))
}
