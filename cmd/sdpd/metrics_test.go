package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
)

// expositionLine matches the Prometheus text format 0.0.4: comments or
// `name{labels} value` samples. The same shape `make federation-smoke`
// enforces against a live sdpd.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-z][a-z0-9_]* .+|[a-z][a-z0-9_]*(\{le="[^"]+"\})? [0-9.eE+-]+|[a-z][a-z0-9_]*(\{le="\+Inf"\}) [0-9]+)$`)

func TestMetricsEndpointExposition(t *testing.T) {
	ts, _ := newGatewayServer(t)

	// Generate some traffic so phase timers and request counters move.
	resp, _ := do(t, "POST", ts.URL+"/services", mustDoc(t, profile.WorkstationService()))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /services = %d", resp.StatusCode)
	}
	resp, _ = do(t, "POST", ts.URL+"/query", mustDoc(t, profile.PDAService()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query = %d", resp.StatusCode)
	}

	resp, body := do(t, "GET", ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	// The acceptance surface: front-end counters, the ontology phase
	// timers (Figure 2), registry histograms, and discovery gauges all on
	// one page.
	for _, name := range []string{
		"sdpd_requests_total",
		"sdpd_request_seconds_count",
		"ontology_parse_seconds_sum",
		"ontology_classify_seconds_count",
		"profile_parse_seconds_count",
		"registry_insert_seconds_bucket",
		"registry_query_seconds_count",
		"registry_entries",
		"match_encoded_ops_total",
		"discovery_bloom_false_positive_rate",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
}

func TestDebugVarsEndpoint(t *testing.T) {
	ts, _ := newGatewayServer(t)
	resp, body := do(t, "GET", ts.URL+"/debug/vars", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars = %d", resp.StatusCode)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("debug vars not JSON: %v", err)
	}
	if _, ok := vars["sdpd_requests_total"]; !ok {
		t.Fatal("sdpd_requests_total missing from /debug/vars")
	}
	if _, ok := vars["registry_insert_seconds"]; !ok {
		t.Fatal("registry_insert_seconds missing from /debug/vars")
	}
}

// TestPprofGatedByFlag: the profiling endpoints exist only when asked for.
func TestPprofGatedByFlag(t *testing.T) {
	srv := newTestServer(t)
	off := httptest.NewServer(newHTTPGateway(srv, false))
	t.Cleanup(off.Close)
	resp, _ := do(t, "GET", off.URL+"/debug/pprof/", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without flag = %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(newHTTPGateway(srv, true))
	t.Cleanup(on.Close)
	resp, body := do(t, "GET", on.URL+"/debug/pprof/", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with flag = %d: %s", resp.StatusCode, body)
	}
}

// TestResponseCodes pins the machine-readable error codes the HTTP status
// mapping relies on.
func TestResponseCodes(t *testing.T) {
	s := newTestServer(t)
	if resp := s.handleDatagram([]byte("{nope")); resp.OK || resp.Code != sdpapi.CodeBadRequest {
		t.Errorf("malformed json: ok=%v code=%q, want code %q", resp.OK, resp.Code, sdpapi.CodeBadRequest)
	}
	cases := []struct {
		name string
		req  sdpapi.Request
		want string
	}{
		{"unknown op", sdpapi.Request{Op: "fly"}, sdpapi.CodeBadRequest},
		{"bad register doc", sdpapi.Request{Op: "register", Doc: "junk"}, sdpapi.CodeBadRequest},
		{"bad query doc", sdpapi.Request{Op: "query", Doc: "junk"}, sdpapi.CodeBadRequest},
		{"missing service", sdpapi.Request{Op: "deregister", Name: "Nope"}, sdpapi.CodeNotFound},
		{"missing table", sdpapi.Request{Op: "get-table", Name: "http://nope"}, sdpapi.CodeNotFound},
	}
	for _, c := range cases {
		resp := s.handle(c.req)
		if resp.OK || resp.Code != c.want {
			t.Errorf("%s: ok=%v code=%q, want code %q", c.name, resp.OK, resp.Code, c.want)
		}
	}
	if resp := s.handle(sdpapi.Request{Op: "stats"}); !resp.OK || resp.Code != "" {
		t.Errorf("stats: ok=%v code=%q, want success without code", resp.OK, resp.Code)
	}
}
