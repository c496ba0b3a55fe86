package discovery

import (
	"context"
	"testing"
	"time"

	"sariadne/internal/election"
	"sariadne/internal/simnet"
	"sariadne/internal/telemetry"
)

// spanWith reports whether spans contain an entry matching node/event and
// (when non-empty) peer.
func spanWith(spans []telemetry.Span, node, event, peer string) bool {
	for _, s := range spans {
		if s.Node == node && s.Event == event && (peer == "" || s.Peer == peer) {
			return true
		}
	}
	return false
}

// TestDiscoverTraceRecordsForwardingHops publishes on one side of a
// three-directory line and queries from the other: the returned trace
// must show the entry directory receiving the query, missing locally,
// pruning the empty middle directory via its Bloom summary, forwarding
// to the directory that holds the service, and both replies.
func TestDiscoverTraceRecordsForwardingHops(t *testing.T) {
	_, nodes := testCluster(t, 7)
	nodes[1].BecomeDirectory()
	nodes[3].BecomeDirectory()
	nodes[5].BecomeDirectory()

	waitUntil(t, 2*time.Second, "backbone handshake", func() bool {
		return len(nodes[1].Peers()) == 2 && len(nodes[3].Peers()) == 2 && len(nodes[5].Peers()) == 2
	})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()

	// n6's vicinity directory is n5: the workstation advertisement lands
	// there. n3 stores nothing, so its summary stays empty and n1 must
	// prune it for any request.
	waitUntil(t, 2*time.Second, "n6 directory", func() bool {
		d, ok := nodes[6].DirectoryID()
		return ok && d == "n5"
	})
	if err := nodes[6].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}

	key := probeKey(t, nodes[1].backend, pdaRequestDoc(t))
	waitUntil(t, 2*time.Second, "summaries at n1", func() bool {
		nodes[1].mu.Lock()
		defer nodes[1].mu.Unlock()
		ps3, ps5 := nodes[1].peers["n3"], nodes[1].peers["n5"]
		return ps3 != nil && ps3.filter != nil &&
			ps5 != nil && ps5.filter != nil && ps5.filter.Test(key)
	})

	waitUntil(t, 2*time.Second, "n0 directory", func() bool {
		d, ok := nodes[0].DirectoryID()
		return ok && d == "n1"
	})
	res, err := nodes[0].DiscoverTrace(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatalf("DiscoverTrace: %v", err)
	}
	hits, spans := res.Hits, res.Spans
	if len(hits) != 1 || hits[0].Directory != "n5" {
		t.Fatalf("hits = %v, want one from n5", hits)
	}
	if res.Partial() {
		t.Fatalf("healthy cluster returned partial result: %v", res.Unreachable)
	}

	trace := spans[0].Trace
	if trace == 0 {
		t.Fatal("zero trace ID on spans")
	}
	for _, s := range spans {
		if s.Trace != trace {
			t.Fatalf("mixed trace IDs in %v", spans)
		}
	}
	for _, want := range []struct{ node, event, peer string }{
		{"n1", telemetry.EventReceived, "n0"},
		{"n1", telemetry.EventLocalMatch, ""},
		{"n1", telemetry.EventBloomPrune, "n3"},
		{"n1", telemetry.EventForward, "n5"},
		{"n5", telemetry.EventReceived, "n1"},
		{"n5", telemetry.EventLocalMatch, ""},
		{"n5", telemetry.EventReply, "n1"},
		{"n1", telemetry.EventReply, "n0"},
	} {
		if !spanWith(spans, want.node, want.event, want.peer) {
			t.Errorf("missing span %s/%s peer=%q in:\n%s",
				want.node, want.event, want.peer, telemetry.FormatSpans(spans))
		}
	}

	// The local-match at n5 found the hit; n1 found nothing.
	for _, s := range spans {
		if s.Event != telemetry.EventLocalMatch {
			continue
		}
		switch s.Node {
		case "n1":
			if s.Hits != 0 {
				t.Errorf("n1 local-match hits = %d, want 0", s.Hits)
			}
		case "n5":
			if s.Hits != 1 {
				t.Errorf("n5 local-match hits = %d, want 1", s.Hits)
			}
		}
	}

	// Spans come back in causal order: n1 received the query before
	// forwarding, and n5's work happened between forward and final reply.
	idx := func(node, event string) int {
		for i, s := range spans {
			if s.Node == node && s.Event == event {
				return i
			}
		}
		return -1
	}
	if !(idx("n1", telemetry.EventReceived) < idx("n1", telemetry.EventForward) &&
		idx("n1", telemetry.EventForward) < idx("n5", telemetry.EventReceived) &&
		idx("n5", telemetry.EventReply) < idx("n1", telemetry.EventReply)) {
		t.Fatalf("spans out of causal order:\n%s", telemetry.FormatSpans(spans))
	}

	// Untraced queries stay untraced: no spans on the plain path.
	plainHits, err := nodes[0].Discover(ctx, pdaRequestDoc(t))
	if err != nil || len(plainHits) != 1 {
		t.Fatalf("plain Discover: %v, %v", plainHits, err)
	}
}

// samplerCluster wires a member n0 against directory n1 with a mutated
// config, for sampled-tracing and slow-query tests that need private
// recorders and aggressive thresholds.
func samplerCluster(t *testing.T, mutate func(*Config)) []*Node {
	t.Helper()
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildLine(net, "n", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QueryTimeout: 500 * time.Millisecond,
		TickInterval: 2 * time.Millisecond,
		Election: election.Config{
			AdvertiseInterval: 20 * time.Millisecond,
			AdvertiseTTL:      2,
			ElectionTimeout:   time.Hour,
		},
	}
	mutate(&cfg)
	nodes := make([]*Node, len(eps))
	for i, ep := range eps {
		nodes[i] = NewNode(ep, NewSemanticBackend(fixtureRegistry(t)), cfg)
		nodes[i].Start(context.Background())
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	nodes[1].BecomeDirectory()
	waitUntil(t, 2*time.Second, "n0 directory", func() bool {
		d, ok := nodes[0].DirectoryID()
		return ok && d == "n1"
	})
	return nodes
}

// TestSampledTracingDepositsIntoRecorder: with TraceSampleEvery=2 the
// first plain query stays untraced and the second carries a trace ID
// whose merged span tree lands in the recorder, marked sampled.
func TestSampledTracingDepositsIntoRecorder(t *testing.T) {
	rec := telemetry.NewRecorder(8, 8)
	nodes := samplerCluster(t, func(c *Config) {
		c.TraceSampleEvery = 2
		c.SlowQueryThreshold = -1 // isolate the sampler from timing noise
		c.Recorder = rec
	})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := nodes[0].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}

	first, err := nodes[0].DiscoverResult(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if first.Trace != 0 || len(first.Spans) != 0 {
		t.Fatalf("query 1 of 2 should be unsampled, got trace %#x spans %v", first.Trace, first.Spans)
	}
	second, err := nodes[0].DiscoverResult(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if second.Trace == 0 || len(second.Spans) == 0 {
		t.Fatalf("query 2 of 2 should be sampled, got trace %#x spans %v", second.Trace, second.Spans)
	}

	recd, ok := rec.Trace(second.Trace)
	if !ok {
		t.Fatalf("sampled trace %#x not in recorder", second.Trace)
	}
	if !recd.Sampled || recd.Slow || recd.Node != "n0" {
		t.Fatalf("record = %+v, want sampled non-slow from n0", recd)
	}
	if recd.Hits != len(second.Hits) || len(recd.Spans) != len(second.Spans) {
		t.Fatalf("record %+v does not match result %+v", recd, second)
	}
	if got := rec.Traces(); len(got) != 1 {
		t.Fatalf("recorder holds %d traces, want 1", len(got))
	}
}

// TestSlowQueryLatchTracesNextQuery: an untraced query that comes back
// slow deposits a spanless record and arms the latch, so the NEXT query
// is traced even with the sampler disabled.
func TestSlowQueryLatchTracesNextQuery(t *testing.T) {
	rec := telemetry.NewRecorder(8, 8)
	nodes := samplerCluster(t, func(c *Config) {
		c.TraceSampleEvery = -1                // sampler off: only the latch can trace
		c.SlowQueryThreshold = time.Nanosecond // everything counts as slow
		c.Recorder = rec
	})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()

	first, err := nodes[0].DiscoverResult(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if first.Trace != 0 {
		t.Fatalf("first query traced (%#x) with the sampler off", first.Trace)
	}
	traces := rec.Traces()
	if len(traces) != 1 || !traces[0].Slow || len(traces[0].Spans) != 0 {
		t.Fatalf("slow untraced query should leave one spanless slow record, got %+v", traces)
	}

	second, err := nodes[0].DiscoverResult(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if second.Trace == 0 || len(second.Spans) == 0 {
		t.Fatalf("latch did not trace the next query: %+v", second)
	}
	recd, ok := rec.Trace(second.Trace)
	if !ok || len(recd.Spans) == 0 || !recd.Slow {
		t.Fatalf("latched trace record = %+v, %v", recd, ok)
	}
}

// TestGiveUpReasonRetriesExhausted: a silent peer burns through the
// retransmission budget, so its unreachable span says so — and the
// give-up lands in the flight recorder's protocol-event ring.
func TestGiveUpReasonRetriesExhausted(t *testing.T) {
	rec := telemetry.NewRecorder(8, 64)
	cfg := hedgeConfig()
	cfg.HedgeSpares = 0
	cfg.Recorder = rec
	_, fakeEp, nodes := hedgeHarness(t, cfg)
	drainSilently(t, fakeEp, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := nodes[0].DiscoverTrace(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	assertUnreachReason(t, res.Spans, "n1", telemetry.ReasonRetries)
	assertGiveUpEvent(t, rec, "n1", telemetry.ReasonRetries)
}

// TestGiveUpReasonTimeout: with retries disabled (fire-and-forget) a
// pending forward can only die at the aggregation deadline, and its
// unreachable span must carry the timeout reason.
func TestGiveUpReasonTimeout(t *testing.T) {
	rec := telemetry.NewRecorder(8, 64)
	cfg := hedgeConfig()
	cfg.HedgeSpares = 0
	cfg.ForwardRetries = -1 // fire-and-forget: only the deadline gives up
	cfg.Recorder = rec
	_, fakeEp, nodes := hedgeHarness(t, cfg)
	drainSilently(t, fakeEp, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := nodes[0].DiscoverTrace(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	assertUnreachReason(t, res.Spans, "n1", telemetry.ReasonTimeout)
	assertGiveUpEvent(t, rec, "n1", telemetry.ReasonTimeout)
}

func assertUnreachReason(t *testing.T, spans []telemetry.Span, peer, reason string) {
	t.Helper()
	for _, s := range spans {
		if s.Event == telemetry.EventUnreach && s.Peer == peer {
			if s.Reason != reason {
				t.Fatalf("unreachable span reason = %q, want %q", s.Reason, reason)
			}
			return
		}
	}
	t.Fatalf("no unreachable span for %s in:\n%s", peer, telemetry.FormatSpans(spans))
}

func assertGiveUpEvent(t *testing.T, rec *telemetry.Recorder, peer, reason string) {
	t.Helper()
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.ProtoGiveUp && ev.Peer == peer {
			if ev.Detail != reason {
				t.Fatalf("give-up event detail = %q, want %q", ev.Detail, reason)
			}
			return
		}
	}
	t.Fatalf("no give-up event for %s in %+v", peer, rec.Events())
}
