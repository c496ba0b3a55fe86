package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sariadne/internal/telemetry"
)

// varsServer serves reg as a daemon serves GET /debug/vars, calling
// before (when set) ahead of each reply.
func varsServer(t *testing.T, reg *telemetry.Registry, before func()) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/vars" {
			http.NotFound(w, r)
			return
		}
		if before != nil {
			before()
		}
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			t.Errorf("WriteJSON: %v", err)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRunTopGolden pins the exact table layout: column order is the
// topColumns slice, not map iteration, so two runs against identical
// daemons are byte-identical. The daemon address is substituted out
// because httptest picks the port.
func TestRunTopGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"sdpd_requests_total", 9},
		{"sdpd_request_errors_total", 1},
		{"discovery_queries_served_total", 7},
		{"discovery_forwards_sent_total", 4},
		{"discovery_forwards_pruned_total", 2},
		{"discovery_forward_giveups_total", 0},
		{"discovery_partial_replies_total", 0},
		{"telemetry_recorder_traces_total", 3},
		{"transport_bytes_sent_total", 1024},
		{"transport_bytes_received_total", 2048},
	} {
		reg.NewCounter(c.name, "").Add(c.n)
	}
	reg.NewBoolGauge("sdpd_healthy", "").Set(true)
	addr := varsServer(t, reg, nil).Listener.Addr().String()

	render := func() string {
		var b strings.Builder
		runTop(&b, []string{addr}, time.Second)
		// Swap the padded address field whole so column widths survive.
		return strings.ReplaceAll(b.String(),
			fmt.Sprintf("%-22s", addr), fmt.Sprintf("%-22s", "DAEMON-A"))
	}
	golden := "DAEMON                     REQS     ERRS   SERVED      FWD   PRUNED   GIVEUP  PARTIAL   TRACES    B-OUT     B-IN  HEALTHY\n" +
		"DAEMON-A                      9        1        7        4        2        0        0        3     1024     2048        1\n"
	if got := render(); got != golden {
		t.Fatalf("table drifted from golden output:\ngot:\n%s\nwant:\n%s", got, golden)
	}
	if render() != render() {
		t.Fatal("repeated renders differ: column ordering is not deterministic")
	}
}

// TestRunTopWatchRefreshes renders the table -count times at the -watch
// interval, separated by blank lines.
func TestRunTopWatchRefreshes(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.NewCounter("sdpd_requests_total", "").Add(5)
	ts := varsServer(t, reg, nil)

	var b strings.Builder
	runTopWatch(&b, []string{ts.Listener.Addr().String()}, time.Second, time.Millisecond, 3)
	if got := strings.Count(b.String(), "DAEMON"); got != 3 {
		t.Fatalf("want 3 table renders, got %d:\n%s", got, b.String())
	}
	if !strings.Contains(b.String(), "\n\n") {
		t.Fatalf("renders not separated:\n%s", b.String())
	}
}

// TestRunWatchWindows drives watch against a daemon whose histogram
// grows between scrapes: the first row anchors, the second must show the
// windowed delta (3 new observations in the le=4 bucket => all quantiles
// at its upper bound), not the cumulative total.
func TestRunWatchWindows(t *testing.T) {
	reg := telemetry.NewRegistry()
	depth := reg.NewSizeHistogram("demo_depth", "")
	for i := 0; i < 50; i++ {
		depth.ObserveInt(1000) // the le=1024 bucket
	}
	var scrapes atomic.Int64
	ts := varsServer(t, reg, func() {
		if scrapes.Add(1) == 2 {
			for i := 0; i < 3; i++ {
				depth.ObserveInt(3) // the le=4 bucket
			}
		}
	})

	var b strings.Builder
	runWatch(&b, ts.Listener.Addr().String(), "demo_depth", time.Second, time.Millisecond, 2)
	out := b.String()
	if !strings.Contains(out, "anchor: 50 observations") {
		t.Fatalf("first scrape did not anchor:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	// The window saw 3 observations, all <= 4: every quantile is 4, and
	// the cumulative 50 pre-anchor observations are invisible.
	if !strings.Contains(last, " 3 ") || strings.Count(last, " 4") < 4 {
		t.Fatalf("windowed row wrong:\n%s", out)
	}
	if strings.Contains(last, "1024") {
		t.Fatalf("cumulative bucket leaked into the window:\n%s", out)
	}
}

// TestRunWatchHistory renders the daemon's own pinned GET /timeseries
// reply (cmd/sdpd's golden file): sdpctl decodes the one curve-point wire
// form, so a field the daemon renames cannot silently print as zeros.
func TestRunWatchHistory(t *testing.T) {
	reply, err := os.ReadFile(filepath.Join("..", "sdpd", "testdata", "timeseries.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var query string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		query = r.URL.RawQuery
		_, _ = w.Write(reply)
	}))
	t.Cleanup(ts.Close)

	var b strings.Builder
	addr := ts.Listener.Addr().String()
	if err := runWatchHistory(&b, addr, "sdpd_request_seconds", time.Second, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if query != "metric=sdpd_request_seconds&since=10m0s" {
		t.Fatalf("asked the daemon for %q", query)
	}
	want := "history: last 10m0s of sdpd_request_seconds from " + addr + " (3 windows, source ring)\n" +
		"ELAPSED       COUNT     RATE/S        P50        P95        P99       P999\n" +
		"5s               10        2.0        1ms        1ms        1ms        1ms\n" +
		"10.5s            10        1.8        1ms        1ms        1ms        1ms\n" +
		"15.5s             0        0.0          -          -          -          -\n"
	if b.String() != want {
		t.Fatalf("history table:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestParseMetricSnapshots round-trips a real registry's WriteJSON
// output through scrapeVars, the decoder watch uses, and checks
// quantiles survive the trip.
func TestParseMetricSnapshots(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.NewHistogram("roundtrip_query_seconds", "latency")
	h.Observe(3 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	reg.NewCounter("roundtrip_ops_total", "ops").Add(7)
	ts := varsServer(t, reg, nil)

	snaps, err := scrapeVars(&http.Client{Timeout: time.Second}, ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hs, ok := snaps["roundtrip_query_seconds"]
	if !ok || hs.Kind != telemetry.KindHistogram {
		t.Fatalf("histogram lost: %+v", snaps)
	}
	if hs.Count != 3 || len(hs.Buckets) == 0 {
		t.Fatalf("histogram state wrong: %+v", hs)
	}
	var orig telemetry.MetricSnapshot
	for _, s := range reg.Snapshot() {
		if s.Name == "roundtrip_query_seconds" {
			orig = s
		}
	}
	for _, q := range []float64{0.5, 0.99} {
		if got, want := hs.Quantile(q), orig.Quantile(q); got != want {
			t.Fatalf("q%v = %v after round trip, want %v", q, got, want)
		}
	}
	if cs := snaps["roundtrip_ops_total"]; cs.Kind == telemetry.KindHistogram || cs.Value != 7 {
		t.Fatalf("counter lost: %+v", cs)
	}
}

// TestRunWatchMissingMetric keeps the failure modes readable.
func TestRunWatchMissingMetric(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.NewCounter("sdpd_requests_total", "").Add(5)
	ts := varsServer(t, reg, nil)
	var b strings.Builder
	runWatch(&b, ts.Listener.Addr().String(), "no_such_seconds", time.Second, time.Millisecond, 1)
	if !strings.Contains(b.String(), `no histogram "no_such_seconds"`) {
		t.Fatalf("missing metric not reported:\n%s", b.String())
	}
}

// TestRunAlerts renders GET /alerts and reports quiet or not: a quiet
// watchdog and a daemon without one are quiet, active alerts are not and
// print their rows.
func TestRunAlerts(t *testing.T) {
	at := "2026-01-02T03:04:05Z"
	for _, tc := range []struct {
		name, body string
		quiet      bool
		want       []string
	}{
		{name: "quiet", body: `{"watching":true,"active":[],"fired":[]}`, quiet: true,
			want: []string{"watchdog running, 0 active, 0 fired since boot"}},
		{name: "active", quiet: false,
			body: `{"watching":true,"active":[{"code":"goroutine_growth","severity":"critical","metric":"runtime_goroutines","at":"` + at +
				`","value":9000,"threshold":600,"evidence":"runtime_goroutines grew 20 -> 920"}],` +
				`"fired":[{"code":"goroutine_growth","severity":"critical","at":"` + at + `","evidence":"runtime_goroutines grew 20 -> 920"}]}`,
			want: []string{"1 active, 1 fired", "ACTIVE", "goroutine_growth critical runtime_goroutines",
				"runtime_goroutines grew 20 -> 920", "fired (newest first):", at + " goroutine_growth critical"}},
		{name: "not watching", body: `{"watching":false,"active":[],"fired":[]}`, quiet: true,
			want: []string{"no drift watchdog"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/alerts" {
					http.NotFound(w, r)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, tc.body)
			}))
			t.Cleanup(ts.Close)
			var b strings.Builder
			quiet, err := runAlerts(&b, ts.Listener.Addr().String(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if quiet != tc.quiet {
				t.Fatalf("quiet = %v, want %v:\n%s", quiet, tc.quiet, b.String())
			}
			// Collapse the column padding so the checks read the words.
			out := strings.Join(strings.Fields(b.String()), " ")
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Fatalf("output lacks %q:\n%s", w, b.String())
				}
			}
		})
	}
}
