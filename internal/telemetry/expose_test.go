package telemetry

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"
)

func testRegistry() *Registry {
	r := NewRegistry()
	c := r.NewCounter("demo_ops_total", "operations")
	c.Add(3)
	g := r.NewFloatGauge("demo_rate", "a rate")
	g.Set(0.25)
	h := r.NewSizeHistogram("demo_depth", "depths")
	h.ObserveInt(1)
	h.ObserveInt(3)
	return r
}

func TestWritePrometheusFormat(t *testing.T) {
	var b strings.Builder
	if err := testRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP demo_ops_total operations\n",
		"# TYPE demo_ops_total counter\n",
		"demo_ops_total 3\n",
		"# TYPE demo_rate gauge\n",
		"demo_rate 0.25\n",
		"# TYPE demo_depth histogram\n",
		"demo_depth_bucket{le=\"2\"} 1\n",
		"demo_depth_bucket{le=\"4\"} 2\n",
		"demo_depth_bucket{le=\"+Inf\"} 2\n",
		"demo_depth_sum 4\n",
		"demo_depth_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	checkExposition(t, out)
}

// checkExposition validates the Prometheus text format line by line —
// the same check the federation-smoke CI target applies to a live sdpd.
func checkExposition(t *testing.T, out string) {
	t.Helper()
	sample := regexp.MustCompile(`^[a-z][a-z0-9_]*(\{le="[^"]+"\})? -?[0-9][0-9eE.+-]*$|^[a-z][a-z0-9_]*(\{le="[^"]+"\})? \+Inf$`)
	comment := regexp.MustCompile(`^# (HELP|TYPE) [a-z][a-z0-9_]* .+$`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if comment.MatchString(line) || sample.MatchString(line) {
			continue
		}
		t.Errorf("malformed exposition line: %q", line)
	}
}

func TestWriteJSON(t *testing.T) {
	var b strings.Builder
	if err := testRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(b.String()), &obj); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if got := obj["demo_ops_total"]; got != 3.0 {
		t.Errorf("demo_ops_total = %v, want 3", got)
	}
	h, ok := obj["demo_depth"].(map[string]any)
	if !ok {
		t.Fatalf("demo_depth = %T, want object", obj["demo_depth"])
	}
	if h["count"] != 2.0 {
		t.Errorf("histogram count = %v, want 2", h["count"])
	}
}

// TestReadJSONRoundTrip reads a registry's WriteJSON output back:
// histogram quantiles survive the trip, a counter keeps its value, and a
// labeled child stays under its own key.
func TestReadJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("roundtrip_query_seconds", "latency")
	h.Observe(3 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	reg.NewCounter("roundtrip_ops_total", "ops").Add(7)
	reg.NewLabeledCounter("roundtrip_denied_total", "denials", "tenant").With("alice").Add(2)

	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	snaps, err := ReadJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	hs, ok := snaps["roundtrip_query_seconds"]
	if !ok || hs.Kind != KindHistogram {
		t.Fatalf("histogram lost: %+v", snaps)
	}
	if hs.Count != 3 || len(hs.Buckets) != 2 || hs.Buckets[0].UpperBound >= hs.Buckets[1].UpperBound {
		t.Fatalf("histogram state wrong (buckets must rise): %+v", hs)
	}
	var orig MetricSnapshot
	for _, s := range reg.Snapshot() {
		if s.Name == "roundtrip_query_seconds" {
			orig = s
		}
	}
	for _, q := range []float64{0.5, 0.99} {
		if got, w := hs.Quantile(q), orig.Quantile(q); got != w {
			t.Fatalf("q%v = %v after round trip, want %v", q, got, w)
		}
	}
	if cs := snaps["roundtrip_ops_total"]; cs.Kind == KindHistogram || cs.Value != 7 {
		t.Fatalf("counter lost: %+v", cs)
	}
	if _, ok := snaps["roundtrip_denied_total"]; ok {
		t.Fatal("a labeled child leaked into its family's plain name")
	}
	if ls := snaps[`roundtrip_denied_total{tenant="alice"}`]; ls.Value != 2 {
		t.Fatalf("labeled child lost: %+v", snaps)
	}
	if _, err := ReadJSON(strings.NewReader("sdpd_requests_total 5\n")); err == nil {
		t.Fatal("Prometheus text read as a JSON snapshot")
	}
}

func TestWriteSummaryElidesZeroes(t *testing.T) {
	r := testRegistry()
	r.NewCounter("demo_unused_total", "never incremented")
	out := r.Summary()
	if strings.Contains(out, "demo_unused_total") {
		t.Errorf("summary includes zero metric:\n%s", out)
	}
	for _, want := range []string{"-- telemetry --", "demo_ops_total: 3", "demo_depth: count=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
