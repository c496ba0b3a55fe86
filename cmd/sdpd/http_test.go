package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
	"sariadne/internal/tenant"
	"sariadne/internal/testutil"
)

// serveGateway boots a daemon from cfg and serves its HTTP gateway.
func serveGateway(t *testing.T, cfg config) (*httptest.Server, *server) {
	t.Helper()
	srv := bootServer(t, cfg)
	ts := httptest.NewServer(newHTTPGateway(srv, cfg.pprof))
	t.Cleanup(ts.Close)
	return ts, srv
}

func newGatewayServer(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	return serveGateway(t, testConfig(t))
}

// serveInProcess has s's HTTP gateway serve one request in process, with
// token as the bearer credential when set.
func serveInProcess(s *server, method, path, body, token string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	newHTTPGateway(s, false).ServeHTTP(rec, req)
	return rec
}

// gatewayGet serves GET path in process and decodes a 200 reply into v. It
// reports false on a 404 and fails the test on any other status.
func gatewayGet(tb testing.TB, s *server, token, path string, v any) bool {
	tb.Helper()
	rec := serveInProcess(s, http.MethodGet, path, "", token)
	switch rec.Code {
	case http.StatusOK:
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			tb.Fatalf("GET %s: %v", path, err)
		}
		return true
	case http.StatusNotFound:
		return false
	}
	tb.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
	return false
}

// historyOf reads one name's version ledger off GET /services/{name}: nil
// for a name never registered.
func historyOf(tb testing.TB, s *server, token, name string) *advertHistory {
	tb.Helper()
	var h advertHistory
	if !gatewayGet(tb, s, token, "/services/"+url.PathEscape(name), &h) {
		return nil
	}
	return &h
}

// pageOf reads one page of GET /services.
func pageOf(tb testing.TB, s *server, token string, limit int, cursor string) servicesPage {
	tb.Helper()
	var page servicesPage
	gatewayGet(tb, s, token, fmt.Sprintf("/services?limit=%d&cursor=%s", limit, url.QueryEscape(cursor)), &page)
	return page
}

func do(t *testing.T, method, url, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(payload)
}

func TestHTTPGatewayLifecycle(t *testing.T) {
	ts, _ := newGatewayServer(t)

	resp, _ := do(t, "POST", ts.URL+"/services", mustDoc(t, profile.WorkstationService()))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /services = %d", resp.StatusCode)
	}

	resp, body := do(t, "POST", ts.URL+"/query", mustDoc(t, profile.PDAService()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query = %d: %s", resp.StatusCode, body)
	}
	var qr sdpapi.Response
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Hits) != 1 || qr.Hits[0].Distance != 3 {
		t.Fatalf("hits = %+v", qr.Hits)
	}

	resp, body = do(t, "GET", ts.URL+"/stats", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"capabilities":2`) {
		t.Fatalf("GET /stats = %d: %s", resp.StatusCode, body)
	}

	resp, body = do(t, "GET", ts.URL+"/tables?uri="+url.QueryEscape(profile.MediaOntologyURI), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /tables = %d: %s", resp.StatusCode, body)
	}
	var tr sdpapi.Response
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if _, err := codes.UnmarshalTable(tr.Table); err != nil {
		t.Fatalf("shipped table invalid: %v", err)
	}

	resp, _ = do(t, "DELETE", ts.URL+"/services/MediaWorkstation", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	resp, _ = do(t, "DELETE", ts.URL+"/services/MediaWorkstation", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double DELETE = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPGatewayPartialQuery: the REST front end serves the same
// completeness marker as the UDP one — a degraded backbone shows up in
// the JSON body, not as an error status.
func TestHTTPGatewayPartialQuery(t *testing.T) {
	cfg := testConfig(t)
	cfg.wrapResolve = partialResolver("n7")
	ts, _ := serveGateway(t, cfg)
	resp, _ := do(t, "POST", ts.URL+"/services", mustDoc(t, profile.WorkstationService()))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /services = %d", resp.StatusCode)
	}

	resp, body := do(t, "POST", ts.URL+"/query", mustDoc(t, profile.PDAService()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query = %d: %s", resp.StatusCode, body)
	}
	var qr sdpapi.Response
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Hits) != 1 {
		t.Fatalf("hits = %+v", qr.Hits)
	}
	if !qr.Partial || len(qr.Unreachable) != 1 || qr.Unreachable[0] != "n7" {
		t.Fatalf("completeness marker lost over HTTP: %s", body)
	}
}

// TestHTTPServicesListing drives the versioned registry API over HTTP:
// cursor pagination, per-name version history, supersede-on-republish.
func TestHTTPServicesListing(t *testing.T) {
	ts, _ := newGatewayServer(t)
	for i := 0; i < 5; i++ {
		svc := profile.WorkstationService()
		svc.Name = fmt.Sprintf("svc-%02d", i)
		resp, body := do(t, "POST", ts.URL+"/services", mustDoc(t, svc))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /services %d = %d: %s", i, resp.StatusCode, body)
		}
		var rr sdpapi.Response
		if err := json.Unmarshal([]byte(body), &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Version != 1 {
			t.Fatalf("assigned version = %d, want 1", rr.Version)
		}
	}
	// Supersede one: its version bumps, the listing shows the new version.
	svc := profile.WorkstationService()
	svc.Name = "svc-02"
	_, body := do(t, "POST", ts.URL+"/services", mustDoc(t, svc))
	var rr sdpapi.Response
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Version != 2 {
		t.Fatalf("superseding version = %d, want 2", rr.Version)
	}

	// Page through with limit 2: three pages, sorted, no duplicates.
	var listed []string
	cursor := ""
	for {
		u := ts.URL + "/services?limit=2"
		if cursor != "" {
			u += "&cursor=" + url.QueryEscape(cursor)
		}
		resp, body := do(t, "GET", u, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /services = %d: %s", resp.StatusCode, body)
		}
		var page struct {
			Services []struct {
				Name    string `json:"name"`
				Version uint64 `json:"version"`
			} `json:"services"`
			NextCursor string `json:"next_cursor"`
			Total      int    `json:"total"`
		}
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatal(err)
		}
		if page.Total != 5 {
			t.Fatalf("total = %d, want 5", page.Total)
		}
		for _, e := range page.Services {
			listed = append(listed, e.Name)
			if e.Name == "svc-02" && e.Version != 2 {
				t.Fatalf("superseded entry lists version %d, want 2", e.Version)
			}
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(listed) != 5 {
		t.Fatalf("paged listing returned %d entries: %v", len(listed), listed)
	}

	// Version history of the superseded name: both versions listable.
	resp, body := do(t, "GET", ts.URL+"/services/svc-02", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /services/svc-02 = %d: %s", resp.StatusCode, body)
	}
	var hist struct {
		Name     string `json:"name"`
		Live     bool   `json:"live"`
		Versions []struct {
			Version uint64 `json:"version"`
		} `json:"versions"`
	}
	if err := json.Unmarshal([]byte(body), &hist); err != nil {
		t.Fatal(err)
	}
	if !hist.Live || len(hist.Versions) != 2 || hist.Versions[0].Version != 1 || hist.Versions[1].Version != 2 {
		t.Fatalf("history = %s", body)
	}

	// Deregistration withdraws from the listing but keeps history.
	if resp, _ := do(t, "DELETE", ts.URL+"/services/svc-02", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	_, body = do(t, "GET", ts.URL+"/services", "")
	if strings.Contains(body, `"svc-02"`) {
		t.Fatalf("withdrawn service still listed: %s", body)
	}
	resp, body = do(t, "GET", ts.URL+"/services/svc-02", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"live":false`) {
		t.Fatalf("withdrawn history = %d: %s", resp.StatusCode, body)
	}

	// Unknown name and bad limit are client errors.
	if resp, _ := do(t, "GET", ts.URL+"/services/never-was", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown service = %d, want 404", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/services?limit=zero", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", resp.StatusCode)
	}
}

// TestHTTPNamespacedServicePath: a tenant-namespaced name holds a slash, so
// it rides the path escaped, as one segment. GET and DELETE of
// /services/alice%2Fws act on alice/ws, where /services/alice/ws is no
// route at all.
func TestHTTPNamespacedServicePath(t *testing.T) {
	s := enforcingServer(t, tenant.Config{})
	authed := func(method, path, body string) (int, string) {
		rec := serveInProcess(s, method, path, body, "ta")
		return rec.Code, rec.Body.String()
	}
	if code, body := authed("POST", "/services", namedDoc(t, "alice/ws")); code != http.StatusCreated {
		t.Fatalf("POST /services = %d: %s", code, body)
	}
	if code, _ := authed("GET", "/services/alice/ws", ""); code != http.StatusNotFound {
		t.Fatalf("GET of the unescaped path = %d, want the mux's 404", code)
	}
	code, body := authed("GET", "/services/alice%2Fws", "")
	if code != http.StatusOK || !strings.Contains(body, `"name":"alice/ws"`) || !strings.Contains(body, `"live":true`) {
		t.Fatalf("GET /services/alice%%2Fws = %d: %s", code, body)
	}
	if code, body := authed("DELETE", "/services/alice%2Fws", ""); code != http.StatusOK {
		t.Fatalf("DELETE /services/alice%%2Fws = %d: %s", code, body)
	}
	if code, body := authed("GET", "/services/alice%2Fws", ""); code != http.StatusOK || !strings.Contains(body, `"live":false`) {
		t.Fatalf("GET after the withdrawal = %d: %s", code, body)
	}
}

func TestHTTPGatewayErrors(t *testing.T) {
	ts, _ := newGatewayServer(t)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/services", "", http.StatusBadRequest},
		{"POST", "/services", "garbage", http.StatusBadRequest},
		{"POST", "/query", "garbage", http.StatusBadRequest},
		{"POST", "/ontologies", "garbage", http.StatusBadRequest},
		{"GET", "/tables?uri=http://unknown.example", "", http.StatusNotFound},
		{"GET", "/tables", "", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := do(t, c.method, ts.URL+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

func TestHTTPGatewayOntologyUpload(t *testing.T) {
	ts, srv := newGatewayServer(t)
	doc := `<ontology uri="http://new.example/ont" version="1"><class name="Thing"/></ontology>`
	resp, _ := do(t, "POST", ts.URL+"/ontologies", doc)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /ontologies = %d", resp.StatusCode)
	}
	if _, ok := srv.reg.Resolve("http://new.example/ont"); !ok {
		t.Fatal("uploaded ontology not encoded")
	}
}

// TestGetTimeseries exercises the sampled history end to end: requests
// flow through the gateway, the sampler snapshots the registry, and
// GET /timeseries returns windowed quantile curves for the latency
// histograms — plus 404 when sampling is off.
func TestGetTimeseries(t *testing.T) {
	// Sampling disabled: the endpoint must say so, not serve zeros.
	off, _ := newGatewayServer(t)
	resp, body := do(t, "GET", off.URL+"/timeseries", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled sampling: status %d body %q", resp.StatusCode, body)
	}

	cfg := testConfig(t)
	cfg.sampleEvery = 10 * time.Millisecond
	ts, srv := serveGateway(t, cfg)

	// Drive real requests through the front end so sdpd_request_seconds
	// accumulates observations for the history to window.
	for i := 0; i < 5; i++ {
		do(t, "GET", ts.URL+"/stats", "")
	}
	testutil.WaitFor(t, 5*time.Second, func() bool {
		return srv.history.Len() >= 3
	}, "sampler never accumulated windows")

	resp, body = do(t, "GET", ts.URL+"/timeseries", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
	var out struct {
		Samples int `json:"samples"`
		Series  map[string][]struct {
			Count     uint64 `json:"count"`
			WindowMs  int64  `json:"window_ms"`
			P50Nanos  int64  `json:"p50_ns"`
			P999Nanos int64  `json:"p999_ns"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("malformed /timeseries body: %v\n%s", err, body)
	}
	if out.Samples < 3 {
		t.Fatalf("samples = %d, want >= 3", out.Samples)
	}
	pts, ok := out.Series["sdpd_request_seconds"]
	if !ok {
		t.Fatalf("sdpd_request_seconds series missing: %s", body)
	}
	var observed uint64
	for _, p := range pts {
		observed += p.Count
		if p.Count > 0 && (p.P50Nanos <= 0 || p.P999Nanos < p.P50Nanos) {
			t.Fatalf("window quantiles wrong: %+v", p)
		}
	}
	if observed == 0 {
		t.Fatalf("no observations landed in any window: %s", body)
	}

	// The metric filter narrows the response to one series.
	_, body = do(t, "GET", ts.URL+"/timeseries?metric=sdpd_request_seconds", "")
	if strings.Contains(body, "discovery_query_seconds") {
		t.Fatalf("?metric filter leaked other series:\n%s", body)
	}
}
