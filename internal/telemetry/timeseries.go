package telemetry

// Time-series sampling: the one place a process's telemetry history
// lives. A Sampler snapshots a registry at a cadence, stamps each Sample
// once with the wall clock, and adds it to a History — a bounded buffer
// that drops the oldest sample. Every reader reads that buffer: the drift
// watchdog takes Recent windows from it, sdpd serves it on GET
// /timeseries, a load run turns it into its report's curve. A Journal
// (journal.go) makes it durable — refills it at open, takes each new
// sample from the sampler's OnSample hook — and holds no samples itself.
// A new reader attaches by being handed the *History; a new signal is a
// metric in the sampled registry and reaches every reader the next tick.
//
// Histogram snapshots are cumulative since process start (or the last
// Reset), so the windowed view between two samples is recovered by
// bucket-wise subtraction (DeltaSnapshot); QuantileCurve composes the two
// into latency *distributions over time* — p50/p95/p99/p999 per window —
// instead of one end-of-run aggregate that averages a flash crowd away.

import (
	"sort"
	"sync"
	"time"
)

// Sample is one sampler tick: the full registry snapshot and the wall
// clock it was taken at. Wall-clock (not elapsed) time is what makes
// history stitch across restarts; consecutive samples define half-open
// observation windows (prev.Time, Time].
type Sample struct {
	Time time.Time
	// Metrics is the full registry snapshot in registration order.
	Metrics []MetricSnapshot
}

// Metric finds a snapshot by name.
func (s Sample) Metric(name string) (MetricSnapshot, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSnapshot{}, false
}

// History is the bounded in-memory time series of samples, oldest
// evicted first. All methods are goroutine-safe.
type History struct {
	mu  sync.Mutex
	buf []Sample // guarded by mu; oldest first, never longer than cap
	cap int
}

// NewHistory returns a history holding up to capacity samples (minimum 2:
// one window needs two edges).
func NewHistory(capacity int) *History {
	if capacity < 2 {
		capacity = 2
	}
	return &History{cap: capacity}
}

// Add appends one sample, dropping the oldest past capacity. Samples must
// arrive in time order.
func (h *History) Add(s Sample) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.buf) == h.cap {
		h.buf = h.buf[:copy(h.buf, h.buf[1:])]
	}
	h.buf = append(h.buf, s)
}

// Len reports how many samples are held.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.buf)
}

// Samples returns a copy of the held samples, oldest first.
func (h *History) Samples() []Sample { return h.after(time.Time{}) }

// Recent returns the samples newer than now-window, oldest first: the
// window is measured back from the wall clock, not from the last sample,
// so a stalled sampler yields an emptying window instead of a stale one.
func (h *History) Recent(window time.Duration) []Sample {
	return h.after(time.Now().Add(-window))
}

func (h *History) after(cutoff time.Time) []Sample {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.buf), func(i int) bool { return h.buf[i].Time.After(cutoff) })
	return append([]Sample(nil), h.buf[i:]...)
}

// Sampler drives a History at a fixed cadence from its own goroutine. Stop
// joins the goroutine, so callers can rely on the history being quiescent
// (and holding a final sample) when Stop returns.
type Sampler struct {
	hist *History
	reg  *Registry
	cfg  SamplerConfig
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// SamplerConfig hooks a sampler into the soak-horizon pipeline. Both
// hooks run on the sampler goroutine (and once more synchronously during
// Stop), so they must not block for long and must not call Stop.
type SamplerConfig struct {
	// Collect, when set, runs immediately before each snapshot — the
	// runtime collector (SampleRuntime) refreshes point-in-time gauges
	// here so every sample carries current readings.
	Collect func()
	// OnSample, when set, receives each sample after it lands in the
	// history — the telemetry journal appends from here.
	OnSample func(Sample)
}

// StartSampler samples reg every interval into hist. An immediate first
// sample anchors the first window.
func StartSampler(reg *Registry, interval time.Duration, hist *History, cfg SamplerConfig) *Sampler {
	s := &Sampler{
		hist: hist,
		reg:  reg,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.take()
	go s.loop(interval)
	return s
}

// take runs one full sampling round: collect, snapshot and stamp, add to
// the history, then hand the sample to the journal hook. This is the only
// place a sample gets its time.
func (s *Sampler) take() {
	if s.cfg.Collect != nil {
		s.cfg.Collect()
	}
	sample := Sample{Time: time.Now(), Metrics: s.reg.Snapshot()}
	s.hist.Add(sample)
	if s.cfg.OnSample != nil {
		s.cfg.OnSample(sample)
	}
}

func (s *Sampler) loop(interval time.Duration) {
	defer close(s.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.take()
		case <-s.stop:
			return
		}
	}
}

// Stop halts sampling, takes one final sample so the last partial window
// is closed, and joins the goroutine. Idempotent.
func (s *Sampler) Stop() {
	s.once.Do(func() {
		close(s.stop)
		<-s.done
		s.take()
	})
}

// DeltaSnapshot returns the observations cur accumulated since prev: for
// histograms a bucket-wise cumulative subtraction (both snapshots must be
// of the same metric, prev taken earlier on the same registry), for
// counters the value delta, for gauges the current value (a gauge has no
// meaningful delta). The result's Quantile is the windowed quantile.
//
// Windows that straddle a counter reset (Registry.Reset between samples,
// or a daemon restart in journal-backed history) clamp instead of
// underflowing: when cur trails prev the window is taken to be everything
// accumulated since the reset, i.e. cur's own cumulative state.
func DeltaSnapshot(prev, cur MetricSnapshot) MetricSnapshot {
	out := MetricSnapshot{Name: cur.Name, Help: cur.Help, Kind: cur.Kind}
	switch cur.Kind {
	case KindHistogram:
		if cur.Count < prev.Count {
			// Reset boundary: the uint64 subtraction below would wrap to
			// a near-2^64 count and poison every downstream rate/quantile.
			out.Count = cur.Count
			out.Sum = cur.Sum
			out.Buckets = append([]BucketCount(nil), cur.Buckets...)
			return out
		}
		out.Count = cur.Count - prev.Count
		out.Sum = cur.Sum - prev.Sum
		// Both bucket lists are sparse cumulative series over the same
		// power-of-two edges; prev's cumulative count at an edge missing
		// from its list is the count of its largest present edge below.
		pi := 0
		var prevCum uint64
		for _, b := range cur.Buckets {
			for pi < len(prev.Buckets) && prev.Buckets[pi].UpperBound <= b.UpperBound {
				prevCum = prev.Buckets[pi].Count
				pi++
			}
			// Per-bucket counts can also trail prev's across a reset
			// that left the totals higher; guard each subtraction.
			if b.Count > prevCum {
				out.Buckets = append(out.Buckets, BucketCount{UpperBound: b.UpperBound, Count: b.Count - prevCum})
			}
		}
	default:
		out.Value = cur.Value
		if cur.Kind == KindCounter && cur.Value >= prev.Value {
			out.Value = cur.Value - prev.Value
		}
	}
	return out
}

// CurvePoint is one observation window of a *_seconds histogram series,
// in the one form it is served (GET /timeseries), decoded (sdpctl watch)
// and stored (a load report's curve): integer milliseconds on the time
// axis, integer nanoseconds for the quantile upper bounds.
type CurvePoint struct {
	// ElapsedMs is the window's closing edge, measured from the oldest
	// sample handed to QuantileCurve; WindowMs is the span between the
	// window's two samples.
	ElapsedMs int64 `json:"elapsed_ms"`
	WindowMs  int64 `json:"window_ms"`
	// Count is the number of observations inside the window; RatePerS is
	// Count per second of window.
	Count    uint64  `json:"count"`
	RatePerS float64 `json:"rate_per_sec"`
	// Quantile upper bounds; zero when the window saw no observations.
	P50Nanos  int64 `json:"p50_ns"`
	P95Nanos  int64 `json:"p95_ns"`
	P99Nanos  int64 `json:"p99_ns"`
	P999Nanos int64 `json:"p999_ns"`
}

// Timeseries is the GET /timeseries reply: how many samples the curves
// were cut from, where the daemon's history comes from ("journal" when a
// telemetry journal refills it across restarts, "ring" when it lives in
// memory only), and one curve per histogram metric.
type Timeseries struct {
	Samples int                     `json:"samples"`
	Series  map[string][]CurvePoint `json:"series"`
	Source  string                  `json:"source"`
}

// QuantileCurve derives the windowed quantile curve of one histogram
// metric from consecutive samples, dropping windows that close at or
// before the warmup offset from the first sample (cold-start
// load/classify costs would otherwise dominate the first windows of
// every run).
func QuantileCurve(samples []Sample, metric string, warmup time.Duration) []CurvePoint {
	var out []CurvePoint
	for i := 1; i < len(samples); i++ {
		elapsed := samples[i].Time.Sub(samples[0].Time)
		if elapsed <= warmup {
			continue
		}
		prev, okPrev := samples[i-1].Metric(metric)
		cur, okCur := samples[i].Metric(metric)
		if !okPrev || !okCur || cur.Kind != KindHistogram {
			continue
		}
		d := DeltaSnapshot(prev, cur)
		window := samples[i].Time.Sub(samples[i-1].Time)
		p := CurvePoint{
			ElapsedMs: elapsed.Milliseconds(),
			WindowMs:  window.Milliseconds(),
			Count:     d.Count,
		}
		if window > 0 {
			p.RatePerS = float64(p.Count) / window.Seconds()
		}
		if d.Count > 0 {
			nanos := func(q float64) int64 { return int64(d.Quantile(q) * 1e9) }
			p.P50Nanos, p.P95Nanos, p.P99Nanos, p.P999Nanos = nanos(0.50), nanos(0.95), nanos(0.99), nanos(0.999)
		}
		out = append(out, p)
	}
	return out
}
