package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
	"sariadne/internal/telemetry"
	"sariadne/internal/testutil"
)

// TestTracedQueryOp: a query with trace:true returns the span tree inline
// and deposits the trace into the flight recorder under the returned ID,
// even on a standalone (unfederated) daemon.
func TestTracedQueryOp(t *testing.T) {
	s := newTestServer(t)
	if resp := s.handle(sdpapi.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())}); !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}
	resp := s.handle(sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService()), Trace: true})
	if !resp.OK || len(resp.Hits) != 1 {
		t.Fatalf("traced query: %+v", resp)
	}
	if resp.TraceID == 0 || len(resp.Spans) == 0 {
		t.Fatalf("traced query missing trace: id=%d spans=%v", resp.TraceID, resp.Spans)
	}
	for _, s := range resp.Spans {
		if s.Node != localNode || s.Trace != resp.TraceID {
			t.Fatalf("bad standalone span: %+v", s)
		}
	}
	rec, ok := telemetry.FlightRecorder().Trace(resp.TraceID)
	if !ok || rec.Hits != 1 || len(rec.Spans) != len(resp.Spans) {
		t.Fatalf("trace %d not retained properly: %+v, %v", resp.TraceID, rec, ok)
	}

	// Untraced queries carry neither spans nor a trace ID (the default
	// sampler period is far beyond this test's query count).
	resp = s.handle(sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())})
	if !resp.OK || resp.TraceID != 0 || len(resp.Spans) != 0 {
		t.Fatalf("plain query leaked trace data: %+v", resp)
	}
}

// TestHTTPTraceEndpoints drives the whole trace surface over REST:
// POST /query?trace=1 returns spans inline, GET /traces lists the
// retained trace, GET /traces/{id} resolves it, and bad IDs are client
// errors, not panics.
func TestHTTPTraceEndpoints(t *testing.T) {
	ts, _ := newGatewayServer(t)
	if resp, _ := do(t, "POST", ts.URL+"/services", mustDoc(t, profile.WorkstationService())); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /services = %d", resp.StatusCode)
	}

	resp, body := do(t, "POST", ts.URL+"/query?trace=1", mustDoc(t, profile.PDAService()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query?trace=1 = %d: %s", resp.StatusCode, body)
	}
	var qr sdpapi.Response
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID == 0 || len(qr.Spans) == 0 {
		t.Fatalf("traced HTTP query missing trace data: %s", body)
	}

	resp, body = do(t, "GET", ts.URL+"/traces/"+strconv.FormatUint(qr.TraceID, 10), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces/{id} = %d: %s", resp.StatusCode, body)
	}
	var rec telemetry.TraceRecord
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != qr.TraceID || len(rec.Spans) != len(qr.Spans) {
		t.Fatalf("retained trace mismatch: %+v vs %+v", rec, qr)
	}

	resp, body = do(t, "GET", ts.URL+"/traces", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces = %d", resp.StatusCode)
	}
	var listing struct {
		Traces []telemetry.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range listing.Traces {
		if tr.ID == qr.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %d missing from listing of %d", qr.TraceID, len(listing.Traces))
	}

	if resp, _ := do(t, "GET", ts.URL+"/traces/not-a-number", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad trace ID = %d, want 400", resp.StatusCode)
	}
	// Minted IDs always carry a non-zero entropy high word, so a small
	// plain integer can never be retained.
	if resp, _ := do(t, "GET", ts.URL+"/traces/7", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/events", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /events = %d", resp.StatusCode)
	}
}

// TestHealthzStandalone: an unfederated daemon with no HTTP gateway
// configured is healthy and ready out of the box, and the endpoints say
// so with 200s.
func TestHealthzStandalone(t *testing.T) {
	ts, _ := newGatewayServer(t)

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, body := do(t, "GET", ts.URL+path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		var st healthState
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if !st.Healthy || !st.Ready || len(st.Probes) == 0 {
			t.Fatalf("GET %s state = %+v", path, st)
		}
	}
}

// TestHealthzFlipsWhenBackboneCloses is the acceptance check for the
// health surface: kill a federated daemon's backbone transport and
// /healthz flips unhealthy within one probe interval.
func TestHealthzFlipsWhenBackboneCloses(t *testing.T) {
	// Ready wants a peer heard within ten probe intervals, and peers
	// announce twice a second.
	cfg := federatedConfig(t, "udp")
	cfg.healthInterval = 100 * time.Millisecond
	sa := bootServer(t, cfg)
	fa, hc := sa.fed, sa.health
	_, _ = newFederatedServer(t, "udp", string(fa.node.ID()))
	testutil.WaitFor(t, 5*time.Second, func() bool {
		return len(fa.node.Peers()) == 1
	}, "backbone handshake")

	testutil.WaitFor(t, 2*time.Second, func() bool {
		st := hc.state()
		return st.Healthy && st.Ready
	}, "federated daemon never became healthy+ready")

	if err := fa.tr.Close(); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, time.Second, func() bool {
		return !hc.state().Healthy
	}, "healthz did not flip after the backbone transport closed")
	st := hc.state()
	if st.Ready {
		t.Fatalf("unhealthy daemon still ready: %+v", st)
	}
	found := false
	for _, p := range st.Probes {
		if p.Name == "backbone" && !p.OK && p.Err != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no failing backbone probe in %+v", st.Probes)
	}
}

// TestReadyzRequiresRecentPeer: a federated daemon with no live peer is
// healthy (its own components work) but not ready (it cannot answer for
// the federation).
func TestReadyzRequiresRecentPeer(t *testing.T) {
	sa, _ := newFederatedServer(t, "udp") // no peers at all
	st := sa.health.state()
	if !st.Healthy || st.Ready {
		t.Fatalf("peerless federated daemon: %+v, want healthy but not ready", st)
	}
}
