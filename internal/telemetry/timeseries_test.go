package telemetry

import (
	"reflect"
	"testing"
	"time"

	"sariadne/internal/testutil"
)

// The TestRing* cases are the eviction and ordering contract the History
// took over from the Ring it replaced (and keep its name). epoch anchors
// their synthetic sample times; at(i) is i seconds after it.
var epoch = time.Unix(1700000000, 0)

func at(i int) time.Time { return epoch.Add(time.Duration(i) * time.Second) }

// seconds lists samples' times as whole seconds after epoch.
func seconds(samples []Sample) []int {
	out := make([]int, len(samples))
	for i, s := range samples {
		out[i] = int(s.Time.Sub(epoch) / time.Second)
	}
	return out
}

func TestRingEvictsOldest(t *testing.T) {
	h := NewHistory(3)
	if h.Len() != 0 || len(h.Samples()) != 0 || len(h.Recent(time.Hour)) != 0 {
		t.Fatal("fresh history is not empty")
	}
	for i := 1; i <= 5; i++ {
		h.Add(Sample{Time: at(i)})
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	if got := seconds(h.Samples()); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("Samples = %v, want 3,4,5", got)
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	h := NewHistory(0)
	for i := 1; i <= 3; i++ {
		h.Add(Sample{Time: at(i)})
	}
	if got := seconds(h.Samples()); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("Samples = %v, want 2,3", got)
	}
}

func TestDeltaSnapshotHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewSizeHistogram("test_delta_units", "")
	h.ObserveInt(3) // bucket le=4
	h.ObserveInt(100)
	prev := reg.Snapshot()[0]
	h.ObserveInt(3)
	h.ObserveInt(1000)
	h.ObserveInt(1000)
	cur := reg.Snapshot()[0]

	d := DeltaSnapshot(prev, cur)
	if d.Count != 3 {
		t.Fatalf("delta Count = %d, want 3", d.Count)
	}
	if d.Sum != 2003 {
		t.Fatalf("delta Sum = %v, want 2003", d.Sum)
	}
	// The window held one observation of 3 and two of 1000: p50 falls in
	// the le=1024 bucket? No — ranked: 3, 1000, 1000; p50 is the 2nd.
	if q := d.Quantile(0.50); q != 1024 {
		t.Fatalf("windowed p50 = %v, want 1024", q)
	}
	if q := d.Quantile(0.001); q != 4 {
		t.Fatalf("windowed p0.1 = %v, want 4 (the lone small observation)", q)
	}
	// The 100-valued observation belongs to prev's window only, so the
	// cumulative count must not grow between the le=4 and le=128 edges.
	var cumAt4, cumAt128 uint64
	for _, b := range d.Buckets {
		switch b.UpperBound {
		case 4:
			cumAt4 = b.Count
		case 128:
			cumAt128 = b.Count
		}
	}
	if cumAt4 != 1 || (cumAt128 != 0 && cumAt128 != cumAt4) {
		t.Fatalf("prev's observation leaked into the window: %+v", d.Buckets)
	}
}

func TestDeltaSnapshotCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("test_delta_total", "")
	g := reg.NewGauge("test_delta_live", "")
	c.Add(5)
	g.Set(7)
	prev := reg.Snapshot()
	c.Add(2)
	g.Set(3)
	cur := reg.Snapshot()
	if d := DeltaSnapshot(prev[0], cur[0]); d.Value != 2 {
		t.Fatalf("counter delta = %v, want 2", d.Value)
	}
	if d := DeltaSnapshot(prev[1], cur[1]); d.Value != 3 {
		t.Fatalf("gauge delta keeps current value, got %v want 3", d.Value)
	}
}

func TestQuantileCurveWindowsAndWarmup(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewSizeHistogram("test_curve_units", "")

	// The first sample sits on an arbitrary wall-clock time: elapsed,
	// window and the warm-up trim all come from Time differences.
	var samples []Sample
	snap := func(offset time.Duration) {
		samples = append(samples, Sample{Time: epoch.Add(offset), Metrics: reg.Snapshot()})
	}
	snap(0)
	// Warmup window: slow ops that the trim must discard.
	for i := 0; i < 10; i++ {
		h.ObserveInt(1 << 20)
	}
	snap(1 * time.Second)
	// Steady window: fast ops.
	for i := 0; i < 100; i++ {
		h.ObserveInt(10)
	}
	snap(2 * time.Second)
	// Idle window: nothing observed.
	snap(3 * time.Second)

	curve := QuantileCurve(samples, "test_curve_units", time.Second)
	if len(curve) != 2 {
		t.Fatalf("curve has %d points, want 2 (warmup window trimmed): %+v", len(curve), curve)
	}
	steady := curve[0]
	if steady.Count != 100 || steady.RatePerS != 100 || steady.ElapsedMs != 2000 || steady.WindowMs != 1000 {
		t.Fatalf("steady window = %+v, want count 100 at 100/s closing at 2000ms over 1000ms", steady)
	}
	// The curve point is the wire form of a *_seconds series: a bucket
	// bound of 16 (units) reads as 16e9 ns.
	if steady.P99Nanos != 16e9 {
		t.Fatalf("steady p99 = %v, want 16e9 (all observations were 10); warmup leaked in", steady.P99Nanos)
	}
	idle := curve[1]
	if idle.Count != 0 || idle.P50Nanos != 0 || idle.ElapsedMs != 3000 {
		t.Fatalf("idle window not empty: %+v", idle)
	}
}

func TestSamplerCadenceAndStop(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("test_sampler_total", "")
	h := NewHistory(64)
	before := time.Now()
	s := StartSampler(reg, 2*time.Millisecond, h, SamplerConfig{})
	c.Inc()
	testutil.WaitFor(t, time.Second, func() bool { return h.Len() >= 3 })
	s.Stop()
	s.Stop() // idempotent
	got := h.Samples()
	if len(got) < 3 {
		t.Fatalf("history has %d samples, want >= 3", len(got))
	}
	last := got[len(got)-1]
	m, ok := last.Metric("test_sampler_total")
	if !ok || m.Value != 1 {
		t.Fatalf("final sample lost the counter: %+v", last.Metrics)
	}
	// The sampler stamps each sample once, in order, with the wall clock.
	for i, sm := range got {
		if sm.Time.Before(before) || sm.Time.After(time.Now()) || (i > 0 && sm.Time.Before(got[i-1].Time)) {
			t.Fatalf("sample %d stamped %v (previous %v)", i, sm.Time, got[max(i-1, 0)].Time)
		}
	}
}

// TestRingWraparoundPreservesWindowOrder drives a history far past its
// capacity and checks the surviving samples stay a contiguous,
// oldest-first suffix at every step — the property QuantileCurve's
// windowing and Recent's binary search rely on during soak runs, where
// the history turns over thousands of times.
func TestRingWraparoundPreservesWindowOrder(t *testing.T) {
	h := NewHistory(4)
	for i := 1; i <= 103; i++ {
		h.Add(Sample{Time: at(i)})
		var want []int
		for j := max(1, i-3); j <= i; j++ {
			want = append(want, j)
		}
		if got := seconds(h.Samples()); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d adds Samples = %v, want %v (contiguous newest suffix)", i, got, want)
		}
	}
}

// TestHistoryBoundAndWindow: Recent cuts back from the wall clock — not
// from the newest sample — however often the history has turned over,
// hands out a copy, and a history gone quiet yields an empty window, not a stale one.
func TestHistoryBoundAndWindow(t *testing.T) {
	h := NewHistory(4)
	now := time.Now()
	// Sample i is 10-i minutes old.
	for i := 0; i < 10; i++ {
		h.Add(sampleAt(now.Add(time.Duration(i-10)*time.Minute), "x_total", float64(i)))
		if got, want := len(h.Recent(time.Hour)), min(i+1, 4); got != want {
			t.Fatalf("after %d adds Recent(1h) = %d samples, want %d (bounded by capacity)", i+1, got, want)
		}
		if got := len(h.Recent(30 * time.Second)); got != 0 {
			t.Fatalf("after %d adds Recent(30s) = %d samples, want 0: the newest is minutes old", i+1, got)
		}
		// A window reaching back past sample i-1 but not i-2.
		got := h.Recent(time.Duration(11-i)*time.Minute + 30*time.Second)
		if len(got) != min(i+1, 2) {
			t.Fatalf("after %d adds the two-sample window holds %d", i+1, len(got))
		}
		for k, s := range got {
			if m, _ := s.Metric("x_total"); m.Value != float64(i-len(got)+1+k) {
				t.Fatalf("after %d adds window sample %d = x_total %v (want oldest first, newest last)", i+1, k, m.Value)
			}
		}
	}
	got := h.Samples()
	got[0] = Sample{}
	if m, ok := h.Samples()[0].Metric("x_total"); !ok || m.Value != 6 {
		t.Fatal("Samples handed out the history's own storage")
	}
}

// TestDeltaSnapshotAcrossReset covers the counter-reset boundary: a
// Registry.Reset (or daemon restart in journal-backed history) between
// two samples must clamp the windowed delta to post-reset activity, not
// underflow uint64 subtraction into astronomically large counts.
func TestDeltaSnapshotAcrossReset(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewSizeHistogram("test_reset_units", "")
	c := reg.NewCounter("test_reset_total", "")

	for i := 0; i < 100; i++ {
		h.ObserveInt(100)
		c.Inc()
	}
	var prevH, prevC MetricSnapshot
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "test_reset_units":
			prevH = m
		case "test_reset_total":
			prevC = m
		}
	}

	reg.Reset()
	h.ObserveInt(3)
	h.ObserveInt(3)
	c.Inc()
	var curH, curC MetricSnapshot
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "test_reset_units":
			curH = m
		case "test_reset_total":
			curC = m
		}
	}

	dh := DeltaSnapshot(prevH, curH)
	if dh.Count != 2 {
		t.Fatalf("histogram delta across reset: Count = %d, want 2 (underflow?)", dh.Count)
	}
	if dh.Sum != 6 {
		t.Fatalf("histogram delta across reset: Sum = %v, want 6", dh.Sum)
	}
	if got := dh.Quantile(0.99); got != 4 {
		t.Fatalf("windowed p99 across reset = %v, want 4 (bucket of 3)", got)
	}
	for _, b := range dh.Buckets {
		if b.Count > 2 {
			t.Fatalf("bucket %+v exceeds window count 2", b)
		}
	}

	dc := DeltaSnapshot(prevC, curC)
	if dc.Value != 1 {
		t.Fatalf("counter delta across reset = %v, want 1 (post-reset activity)", dc.Value)
	}
}

// TestDeltaSnapshotPartialBucketRegression: a reset that leaves the
// total count higher but individual buckets lower must still never
// underflow a bucket subtraction.
func TestDeltaSnapshotPartialBucketRegression(t *testing.T) {
	prev := MetricSnapshot{Name: "x_units", Kind: KindHistogram, Count: 10, Sum: 40,
		Buckets: []BucketCount{{UpperBound: 4, Count: 10}}}
	cur := MetricSnapshot{Name: "x_units", Kind: KindHistogram, Count: 12, Sum: 300,
		Buckets: []BucketCount{{UpperBound: 4, Count: 2}, {UpperBound: 32, Count: 12}}}
	d := DeltaSnapshot(prev, cur)
	if d.Count != 2 {
		t.Fatalf("Count = %d, want 2", d.Count)
	}
	for _, b := range d.Buckets {
		if b.Count > 1<<40 {
			t.Fatalf("bucket %+v underflowed", b)
		}
	}
}

// TestQuantileCurveAcrossReset: the composed path — a curve spanning a
// reset must not emit a poisoned point.
func TestQuantileCurveAcrossReset(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewSizeHistogram("test_curve_reset_units", "")
	r := NewHistory(8)

	h.ObserveInt(10)
	h.ObserveInt(10)
	r.Add(Sample{Time: at(1), Metrics: reg.Snapshot()})
	reg.Reset()
	h.ObserveInt(10)
	r.Add(Sample{Time: at(2), Metrics: reg.Snapshot()})

	curve := QuantileCurve(r.Samples(), "test_curve_reset_units", 0)
	if len(curve) != 1 {
		t.Fatalf("curve has %d points, want 1", len(curve))
	}
	if curve[0].Count != 1 {
		t.Fatalf("post-reset window count = %d, want 1", curve[0].Count)
	}
}
