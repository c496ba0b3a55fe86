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

// TestRunTopGolden pins the exact table layout: column order is the
// topColumns slice, not map iteration, so two runs against identical
// daemons are byte-identical. The daemon address is substituted out
// because httptest picks the port.
func TestRunTopGolden(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "sdpd_requests_total 9\n"+
			"sdpd_request_errors_total 1\n"+
			"discovery_queries_served_total 7\n"+
			"discovery_forwards_sent_total 4\n"+
			"discovery_forwards_pruned_total 2\n"+
			"discovery_forward_giveups_total 0\n"+
			"discovery_partial_replies_total 0\n"+
			"telemetry_recorder_traces_total 3\n"+
			"transport_bytes_sent_total 1024\n"+
			"transport_bytes_received_total 2048\n"+
			"sdpd_healthy 1\n")
	}))
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()

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
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "sdpd_requests_total 5\n")
	}))
	t.Cleanup(ts.Close)

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
	var scrapes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := scrapes.Add(1)
		if n == 1 {
			fmt.Fprint(w, "# TYPE demo_depth histogram\n"+
				"demo_depth_bucket{le=\"1024\"} 50\n"+
				"demo_depth_bucket{le=\"+Inf\"} 50\n"+
				"demo_depth_sum 51200\n"+
				"demo_depth_count 50\n")
			return
		}
		fmt.Fprint(w, "# TYPE demo_depth histogram\n"+
			"demo_depth_bucket{le=\"4\"} 3\n"+
			"demo_depth_bucket{le=\"1024\"} 53\n"+
			"demo_depth_bucket{le=\"+Inf\"} 53\n"+
			"demo_depth_sum 51209\n"+
			"demo_depth_count 53\n")
	}))
	t.Cleanup(ts.Close)

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

// TestRunWatchMissingMetric keeps the failure modes readable.
func TestRunWatchMissingMetric(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "sdpd_requests_total 5\n")
	}))
	t.Cleanup(ts.Close)
	var b strings.Builder
	runWatch(&b, ts.Listener.Addr().String(), "no_such_seconds", time.Second, time.Millisecond, 1)
	if !strings.Contains(b.String(), `no histogram "no_such_seconds"`) {
		t.Fatalf("missing metric not reported:\n%s", b.String())
	}
}

// TestParseMetricSnapshots round-trips a real registry exposition back
// into snapshots and checks quantiles survive the trip.
func TestParseMetricSnapshots(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.NewHistogram("roundtrip_query_seconds", "latency")
	h.Observe(3 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	c := reg.NewCounter("roundtrip_ops_total", "ops")
	c.Add(7)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	snaps, err := parseMetricSnapshots(strings.NewReader(b.String()))
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
	want := reg.Snapshot()
	var orig telemetry.MetricSnapshot
	for _, s := range want {
		if s.Name == "roundtrip_query_seconds" {
			orig = s
		}
	}
	for _, q := range []float64{0.5, 0.99} {
		if got, w := hs.Quantile(q), orig.Quantile(q); got != w {
			t.Fatalf("q%v = %v after round trip, want %v", q, got, w)
		}
	}
	if cs := snaps["roundtrip_ops_total"]; cs.Kind != telemetry.KindCounter || cs.Value != 7 {
		t.Fatalf("counter lost: %+v", snaps["roundtrip_ops_total"])
	}
}
