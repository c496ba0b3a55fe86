package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"sariadne/internal/sdpapi"
	"sariadne/internal/telemetry"
	"sariadne/internal/tenant"
)

// httpGateway exposes the directory over HTTP for clients that prefer REST
// to the UDP datagram protocol:
//
//	POST /services          body: Amigo-S XML        -> 201 {"version":N}; re-publishing a name supersedes it
//	GET  /services[?limit=N&cursor=name]             -> 200 {"services":[...],"next_cursor":"...","total":N}
//	GET  /services/{name}                            -> 200 {"name":..,"live":..,"versions":[...]} full version ledger
//	DELETE /services/{name}                          -> 204
//	POST /query[?trace=1]   body: Amigo-S XML        -> 200 {"hits":[...]}; trace=1 adds spans inline
//	POST /ontologies        body: ontology XML       -> 201
//	GET  /tables?uri={ontology-uri}                  -> 200 code table JSON
//	GET  /stats                                      -> 200 {"capabilities":..,"ontologies":[..]}
//	GET  /peers                                      -> 200 {"peers":[...]} (federated daemons)
//	GET  /tenants                                    -> 200 admission table: limits + per-tenant usage (admin)
//	GET  /traces                                     -> 200 {"traces":[...]} flight-recorder listing, newest first
//	GET  /traces/{id}                                -> 200 one retained trace with its span tree
//	GET  /events                                     -> 200 {"events":[...]} protocol events, newest first
//	GET  /healthz                                    -> 200/503 component health report
//	GET  /readyz                                     -> 200/503 readiness (health + fresh backbone peer)
//	GET  /metrics                                    -> 200 Prometheus text exposition
//	GET  /timeseries[?metric={name}&since={dur}]     -> 200 windowed quantile curves (journal-backed with -telemetry-journal)
//	GET  /alerts                                     -> 200 {"watching":..,"active":[...],"fired":[...]} drift-watchdog view
//	GET  /debug/vars                                 -> 200 expvar-style JSON snapshot
//	GET  /debug/pprof/*     (only with -pprof)       -> net/http/pprof
//
// {name} is one path segment: a namespaced name travels with its slash
// escaped (/services/alice%2Fws is alice/ws).
//
// On a daemon with admission enabled (-auth-tokens / -auth-secret) every
// endpoint reads the bearer credential from the Authorization header;
// denials map onto 401 (unauthenticated), 403 (forbidden) and 429 (rate
// limited or over quota).
//
// Every op endpoint builds the same sdpapi.Request a datagram would decode
// to and calls server.handle with it, so admission, journaling and
// validation behave identically on both front ends; the success body is
// the sdpapi.Response.
type httpGateway struct {
	srv *server
	log *slog.Logger
}

// newHTTPGateway builds the REST mux over a directory server. withPprof
// additionally mounts net/http/pprof under /debug/pprof (off by default:
// profiling endpoints leak heap contents and should be opt-in).
func newHTTPGateway(srv *server, withPprof bool) http.Handler {
	g := &httpGateway{srv: srv, log: slog.With("component", "http")}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /services", g.postServices)
	mux.HandleFunc("GET /services", g.getServices)
	mux.HandleFunc("GET /services/{name}", g.getService)
	mux.HandleFunc("DELETE /services/{name}", g.deleteService)
	mux.HandleFunc("POST /query", g.postQuery)
	mux.HandleFunc("POST /ontologies", g.postOntologies)
	mux.HandleFunc("GET /tables", g.getTable)
	mux.HandleFunc("GET /stats", g.getStats)
	mux.HandleFunc("GET /peers", g.getPeers)
	mux.HandleFunc("GET /tenants", g.getTenants)
	mux.HandleFunc("GET /traces", g.getTraces)
	mux.HandleFunc("GET /traces/{id}", g.getTrace)
	mux.HandleFunc("GET /events", g.getEvents)
	mux.HandleFunc("GET /healthz", g.getHealthz)
	mux.HandleFunc("GET /readyz", g.getReadyz)
	mux.HandleFunc("GET /metrics", g.getMetrics)
	mux.HandleFunc("GET /timeseries", g.getTimeseries)
	mux.HandleFunc("GET /alerts", g.getAlerts)
	mux.HandleFunc("GET /debug/vars", g.getDebugVars)
	if withPprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// httpStatus maps a response error code to an HTTP status.
func httpStatus(code string) int {
	switch code {
	case sdpapi.CodeNotFound:
		return http.StatusNotFound
	case sdpapi.CodeInternal:
		return http.StatusInternalServerError
	case sdpapi.CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case tenant.CodeUnauthenticated:
		return http.StatusUnauthorized
	case tenant.CodeForbidden:
		return http.StatusForbidden
	case tenant.CodeRateLimited:
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

// bearerToken extracts the credential from an Authorization: Bearer
// header ("" when absent), feeding Request.Token on every dispatched op.
func bearerToken(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	if tok, ok := strings.CutPrefix(auth, "Bearer "); ok {
		return strings.TrimSpace(tok)
	}
	return ""
}

// authorize gates the handlers that read the directory directly instead of
// dispatching an op (the paginated listing, the version ledger): they
// authenticate exactly like dispatched ops, so an enforcing daemon has no
// anonymous side door.
func (g *httpGateway) authorize(w http.ResponseWriter, r *http.Request) bool {
	if _, err := g.srv.gate.Authenticate(bearerToken(r)); err != nil {
		resp := denialResponse(err)
		http.Error(w, resp.Error, httpStatus(resp.Code))
		return false
	}
	return true
}

// dispatch runs a request through the shared handler and writes the reply.
func (g *httpGateway) dispatch(w http.ResponseWriter, req sdpapi.Request, okStatus int) {
	resp := g.srv.handle(req)
	if !resp.OK {
		http.Error(w, resp.Error, httpStatus(resp.Code))
		return
	}
	g.writeJSON(w, okStatus, resp)
}

func readBody(w http.ResponseWriter, r *http.Request) (string, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return "", false
	}
	if len(body) == 0 {
		http.Error(w, "empty body", http.StatusBadRequest)
		return "", false
	}
	return string(body), true
}

func (g *httpGateway) postServices(w http.ResponseWriter, r *http.Request) {
	doc, ok := readBody(w, r)
	if !ok {
		return
	}
	g.dispatch(w, sdpapi.Request{Op: sdpapi.OpRegister, Doc: doc, Token: bearerToken(r)}, http.StatusCreated)
}

// serviceEntry is one row of a GET /services page.
type serviceEntry struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
}

// servicesPage is the paginated live-advertisement listing.
type servicesPage struct {
	Services []serviceEntry `json:"services"`
	// NextCursor is the value to pass as ?cursor= for the following page;
	// empty when this page is the last.
	NextCursor string `json:"next_cursor,omitempty"`
	// Total is the full live-advertisement count, independent of paging.
	Total int `json:"total"`
}

// advertVersion is one published version of an advertisement.
type advertVersion struct {
	Version uint64 `json:"version"`
	Doc     string `json:"doc,omitempty"`
}

// advertHistory is one name's ledger as GET /services/{name} serves it:
// every version number, with the document on the current version of a live
// name and on no other.
type advertHistory struct {
	Name     string          `json:"name"`
	Live     bool            `json:"live"`
	Versions []advertVersion `json:"versions"`
}

// getServices pages through the live advertisements in name order: GET
// /services?limit=N&cursor={last-name}. The cursor is the last name of
// the previous page; an empty next_cursor in the reply means the listing
// is complete. It reads the directory, which locks for itself, and waits
// for no request in progress.
func (g *httpGateway) getServices(w http.ResponseWriter, r *http.Request) {
	if !g.authorize(w, r) {
		return
	}
	limit := 50
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			http.Error(w, "bad limit (want a positive integer)", http.StatusBadRequest)
			return
		}
		limit = min(n, 500)
	}
	names, versions, total := g.srv.backend.Directory().Page(r.URL.Query().Get("cursor"), limit)
	page := servicesPage{Services: make([]serviceEntry, len(names)), Total: total}
	for i, name := range names {
		page.Services[i] = serviceEntry{Name: name, Version: versions[i]}
	}
	// A full page always returns a cursor — even when it happens to be the
	// final page. The client's next probe comes back empty and cursorless,
	// which is the unambiguous end-of-listing signal; keying the cursor off
	// the names left made an exactly-full final page indistinguishable from
	// a truncated listing.
	if len(names) == limit {
		page.NextCursor = names[limit-1]
	}
	g.writeJSON(w, http.StatusOK, page)
}

// getService serves one advertisement's version ledger, withdrawn
// versions included, off the directory like getServices.
func (g *httpGateway) getService(w http.ResponseWriter, r *http.Request) {
	if !g.authorize(w, r) {
		return
	}
	name := r.PathValue("name")
	versions, doc, live := g.srv.backend.Directory().History(name)
	if versions == nil {
		http.Error(w, fmt.Sprintf("service %q never registered", name), http.StatusNotFound)
		return
	}
	h := advertHistory{Name: name, Live: live, Versions: make([]advertVersion, len(versions))}
	for i, v := range versions {
		h.Versions[i].Version = v
	}
	if live {
		h.Versions[len(versions)-1].Doc = doc
	}
	g.writeJSON(w, http.StatusOK, h)
}

func (g *httpGateway) deleteService(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		http.Error(w, "missing service name", http.StatusBadRequest)
		return
	}
	g.dispatch(w, sdpapi.Request{Op: sdpapi.OpDeregister, Name: name, Token: bearerToken(r)}, http.StatusOK)
}

func (g *httpGateway) postQuery(w http.ResponseWriter, r *http.Request) {
	doc, ok := readBody(w, r)
	if !ok {
		return
	}
	// The body is the raw XML document, so the trace switch rides the
	// query string: POST /query?trace=1.
	traced := r.URL.Query().Get("trace") == "1"
	g.dispatch(w, sdpapi.Request{Op: sdpapi.OpQuery, Doc: doc, Trace: traced, Token: bearerToken(r)}, http.StatusOK)
}

func (g *httpGateway) postOntologies(w http.ResponseWriter, r *http.Request) {
	doc, ok := readBody(w, r)
	if !ok {
		return
	}
	g.dispatch(w, sdpapi.Request{Op: sdpapi.OpAddOntology, Doc: doc, Token: bearerToken(r)}, http.StatusCreated)
}

// getTable takes the ontology URI as a query parameter (URIs contain
// slashes that path routing would normalize away): GET /tables?uri=...
func (g *httpGateway) getTable(w http.ResponseWriter, r *http.Request) {
	uri := r.URL.Query().Get("uri")
	if uri == "" {
		http.Error(w, "missing uri query parameter", http.StatusBadRequest)
		return
	}
	g.dispatch(w, sdpapi.Request{Op: sdpapi.OpGetTable, Name: uri, Token: bearerToken(r)}, http.StatusOK)
}

func (g *httpGateway) getStats(w http.ResponseWriter, r *http.Request) {
	g.dispatch(w, sdpapi.Request{Op: sdpapi.OpStats, Token: bearerToken(r)}, http.StatusOK)
}

// getPeers serves the live backbone view of a federated daemon.
func (g *httpGateway) getPeers(w http.ResponseWriter, r *http.Request) {
	g.dispatch(w, sdpapi.Request{Op: sdpapi.OpPeers, Token: bearerToken(r)}, http.StatusOK)
}

// getTenants serves the admission table: enforcement mode, configured
// limits, per-tenant usage. Admin role required on an enforcing daemon.
func (g *httpGateway) getTenants(w http.ResponseWriter, r *http.Request) {
	g.dispatch(w, sdpapi.Request{Op: sdpapi.OpTenants, Token: bearerToken(r)}, http.StatusOK)
}

// writeJSON encodes v with the canonical content type.
func (g *httpGateway) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		g.log.Error("encode reply", "err", err)
	}
}

// getTraces lists the flight recorder's retained traces, newest first.
func (g *httpGateway) getTraces(w http.ResponseWriter, _ *http.Request) {
	g.writeJSON(w, http.StatusOK, map[string]any{
		"traces": telemetry.FlightRecorder().Traces(),
	})
}

// getTrace serves one retained trace by ID (decimal or 0x-hex).
func (g *httpGateway) getTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 0, 64)
	if err != nil {
		http.Error(w, "bad trace ID: "+err.Error(), http.StatusBadRequest)
		return
	}
	rec, ok := telemetry.FlightRecorder().Trace(id)
	if !ok {
		http.Error(w, fmt.Sprintf("trace %d not retained", id), http.StatusNotFound)
		return
	}
	g.writeJSON(w, http.StatusOK, rec)
}

// getEvents lists the flight recorder's protocol events, newest first.
func (g *httpGateway) getEvents(w http.ResponseWriter, _ *http.Request) {
	g.writeJSON(w, http.StatusOK, map[string]any{
		"events": telemetry.FlightRecorder().Events(),
	})
}

// healthReport answers a health or readiness check from the prober's
// cached state; ok picks which verdict gates the status code.
func (g *httpGateway) healthReport(w http.ResponseWriter, ok func(healthState) bool) {
	st := g.srv.health.state()
	status := http.StatusOK
	if !ok(st) {
		status = http.StatusServiceUnavailable
	}
	g.writeJSON(w, status, st)
}

func (g *httpGateway) getHealthz(w http.ResponseWriter, _ *http.Request) {
	g.healthReport(w, func(st healthState) bool { return st.Healthy })
}

func (g *httpGateway) getReadyz(w http.ResponseWriter, _ *http.Request) {
	g.healthReport(w, func(st healthState) bool { return st.Ready })
}

// getMetrics serves the process-wide telemetry registry in Prometheus
// text exposition format: the paper's phase timers (Figure 2), registry
// insert/query histograms, discovery forward counters and the live Bloom
// false-positive-rate gauge, all from one scrape.
func (g *httpGateway) getMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.Default().WritePrometheus(w); err != nil {
		g.log.Error("write metrics", "err", err)
	}
}

// getTimeseries serves windowed quantile curves from the daemon's
// telemetry history: one series per *_seconds histogram (or just
// ?metric=), each point the latency distribution between two consecutive
// samples, optionally restricted to the last ?since={duration} measured
// back from now. History a journal refilled spans restarts —
// DeltaSnapshot clamps across the counter reset at the restart boundary.
func (g *httpGateway) getTimeseries(w http.ResponseWriter, r *http.Request) {
	hist := g.srv.history
	if hist == nil {
		http.Error(w, "time-series sampling disabled (-sample-every 0)", http.StatusNotFound)
		return
	}
	var samples []telemetry.Sample
	if raw := r.URL.Query().Get("since"); raw == "" {
		samples = hist.Samples()
	} else if since, err := time.ParseDuration(raw); err == nil && since > 0 {
		samples = hist.Recent(since)
	} else {
		http.Error(w, "bad since (want a positive duration like 10m)", http.StatusBadRequest)
		return
	}
	only := r.URL.Query().Get("metric")
	reply := telemetry.Timeseries{Samples: len(samples), Source: g.srv.historySource,
		Series: make(map[string][]telemetry.CurvePoint)}
	if len(samples) > 0 {
		for _, m := range samples[len(samples)-1].Metrics {
			// Only *_seconds histograms: the point fields are nanoseconds,
			// and size histograms would be mislabeled.
			if m.Kind != telemetry.KindHistogram || !strings.HasSuffix(m.Name, "_seconds") {
				continue
			}
			if only != "" && m.Name != only {
				continue
			}
			if pts := telemetry.QuantileCurve(samples, m.Name, 0); pts != nil {
				reply.Series[m.Name] = pts
			}
		}
	}
	g.writeJSON(w, http.StatusOK, reply)
}

// getAlerts serves the drift watchdog's view: alerts firing right now,
// the flight recorder's fired-alert history newest first, and whether a
// watchdog is running at all (a daemon without -watch-every answers
// "watching":false rather than 404, so pollers need no special case).
func (g *httpGateway) getAlerts(w http.ResponseWriter, _ *http.Request) {
	reply := telemetry.AlertReport{Watching: g.srv.watchdog != nil, Active: []telemetry.Alert{}}
	if reply.Watching {
		reply.Active = g.srv.watchdog.Active()
	}
	if reply.Fired = telemetry.FlightRecorder().Alerts(); reply.Fired == nil {
		reply.Fired = []telemetry.Alert{}
	}
	g.writeJSON(w, http.StatusOK, reply)
}

// getDebugVars serves the same snapshot as an expvar-style JSON object.
func (g *httpGateway) getDebugVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := telemetry.Default().WriteJSON(w); err != nil {
		g.log.Error("write debug vars", "err", err)
	}
}

// serveHTTP runs the gateway until it fails or is shut down; it blocks
// like serve. The server's httpLive flag tracks the listener's lifetime
// for the health prober.
func serveHTTP(addr string, srv *server, gateway *http.Server) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("http gateway: %w", err)
	}
	srv.httpLive.Store(true)
	defer srv.httpLive.Store(false)
	slog.Info("serving HTTP gateway", "component", "http", "addr", ln.Addr().String(), "pprof", srv.cfg.pprof)
	if err := gateway.Serve(ln); err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("http gateway: %w", err)
	}
	return nil
}
