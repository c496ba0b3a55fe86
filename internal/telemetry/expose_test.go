package telemetry

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
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
