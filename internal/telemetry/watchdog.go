package telemetry

// Drift watchdog: pluggable detectors sweep the most recent window of the
// daemon's sample History at a cadence and raise typed alerts for the
// slow failure modes a soak run exists to catch — goroutine/heap creep,
// summary staleness, election flapping, append-latency steps,
// tenant-denial spikes.
//
// Detector contract: Examine sees the window's samples oldest first and
// answers (alert, firing). Detectors are pure functions of the window —
// no clocks, no side effects — so the same window always yields the same
// verdict and tests can drive them with synthetic samples. The watchdog
// owns the lifecycle around that verdict: an alert fires once when its
// code first turns firing (flight recorder entry, alert_fired_total
// increment, OnAlert hook), stays active while firing, and resolves
// after ResolveAfter consecutive quiet sweeps so a flapping signal does
// not re-fire every interval.

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Alert severities: warnings flag drift worth a look, critical flags
// drift that will take the daemon down if it continues.
const (
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

// Alert codes emitted by the standard detector set.
const (
	AlertGoroutineGrowth   = "goroutine_growth"
	AlertMemoryGrowth      = "memory_growth"
	AlertSummaryStale      = "summary_stale"
	AlertElectionFlap      = "election_flap"
	AlertAppendLatencyStep = "append_latency_step"
	AlertDenialSpike       = "denial_spike"
)

// Alert is one typed watchdog finding.
type Alert struct {
	// Code identifies the failure mode; one lifecycle is tracked per code.
	Code string `json:"code"`
	// Severity is SeverityWarning or SeverityCritical.
	Severity string `json:"severity"`
	// Metric is the series the detector examined.
	Metric string `json:"metric,omitempty"`
	// At is when the watchdog observed the condition.
	At time.Time `json:"at"`
	// Window is the span of samples the verdict covers.
	Window time.Duration `json:"window"`
	// Value is the measured signal, Threshold the configured bound it
	// crossed; their unit is detector-specific and named in Evidence.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Evidence is a human-readable one-liner with the numbers.
	Evidence string `json:"evidence,omitempty"`
}

// AlertReport is the whole GET /alerts reply: whether a watchdog runs at
// all, the alerts firing now, and the fired-alert history newest first.
type AlertReport struct {
	Watching bool    `json:"watching"`
	Active   []Alert `json:"active"`
	Fired    []Alert `json:"fired"`
}

// Detector examines one window of samples (oldest first) and reports
// whether its failure mode is present.
type Detector interface {
	// Code returns the alert code this detector owns.
	Code() string
	// Examine inspects the window and returns the alert to raise when
	// firing. The watchdog stamps At and Window on the result.
	Examine(samples []Sample) (Alert, bool)
}

// MinDetectorSamples is the fewest samples any stock detector needs
// before it gives a verdict: the half-window detectors compare two
// halves of two edges each, and a fitted slope over fewer points is noise.
const MinDetectorSamples = 4

// MinWindow is the shortest watchdog window sure to hold
// MinDetectorSamples at the given sampling cadence; the spare period
// absorbs the phase between a sampler tick and a sweep.
func MinWindow(sampleEvery time.Duration) time.Duration {
	return (MinDetectorSamples + 1) * sampleEvery
}

// --- detectors ---

// series extracts (seconds-since-first-sample, value) points for one
// counter/gauge metric across the window.
func series(samples []Sample, metric string) (xs, ys []float64) {
	var t0 time.Time
	for _, s := range samples {
		m, ok := s.Metric(metric)
		if !ok {
			continue
		}
		if t0.IsZero() {
			t0 = s.Time
		}
		xs = append(xs, s.Time.Sub(t0).Seconds())
		ys = append(ys, m.Value)
	}
	return xs, ys
}

// slope fits y = a + b*x by least squares and returns b (units/second).
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// GrowthDetector fires when a gauge's least-squares slope exceeds a
// per-minute bound AND the window's net growth exceeds a fraction of its
// starting value — the fraction gate keeps a large steady-state gauge
// with a tiny wiggle from alerting.
type GrowthDetector struct {
	code        string
	severity    string
	metric      string
	slopePerMin float64 // fire at or above this fitted growth rate
	minFrac     float64 // and only if (last-first)/max(first,1) reaches this
}

// NewGrowthDetector builds a growth detector over one gauge metric.
func NewGrowthDetector(code, severity, metric string, slopePerMin, minFrac float64) *GrowthDetector {
	return &GrowthDetector{code: code, severity: severity, metric: metric,
		slopePerMin: slopePerMin, minFrac: minFrac}
}

// Code implements Detector.
func (d *GrowthDetector) Code() string { return d.code }

// Examine implements Detector.
func (d *GrowthDetector) Examine(samples []Sample) (Alert, bool) {
	xs, ys := series(samples, d.metric)
	if len(xs) < MinDetectorSamples {
		return Alert{}, false
	}
	perMin := slope(xs, ys) * 60
	first, last := ys[0], ys[len(ys)-1]
	base := first
	if base < 1 {
		base = 1
	}
	frac := (last - first) / base
	if perMin < d.slopePerMin || frac < d.minFrac {
		return Alert{}, false
	}
	return Alert{
		Code:      d.code,
		Severity:  d.severity,
		Metric:    d.metric,
		Value:     perMin,
		Threshold: d.slopePerMin,
		Evidence: fmt.Sprintf("%s grew %s -> %s over %d samples (+%.1f/min, +%.0f%%)",
			d.metric, formatFloat(first), formatFloat(last), len(ys), perMin, frac*100),
	}, true
}

// StalenessDetector fires when a counter that has moved before stops
// moving for longer than maxAge — the summary-refresh pipeline going
// quiet while the daemon stays up.
type StalenessDetector struct {
	code     string
	severity string
	counter  string
	maxAge   time.Duration
}

// NewStalenessDetector builds a staleness detector over one counter.
func NewStalenessDetector(code, severity, counter string, maxAge time.Duration) *StalenessDetector {
	return &StalenessDetector{code: code, severity: severity, counter: counter, maxAge: maxAge}
}

// Code implements Detector.
func (d *StalenessDetector) Code() string { return d.code }

// Examine implements Detector.
func (d *StalenessDetector) Examine(samples []Sample) (Alert, bool) {
	if len(samples) < 2 {
		return Alert{}, false
	}
	var lastMove, firstSeen, lastSeen time.Time
	var prev float64
	seen := false
	everNonzero := false
	for _, s := range samples {
		m, ok := s.Metric(d.counter)
		if !ok {
			continue
		}
		if !seen {
			seen = true
			firstSeen, lastMove, prev = s.Time, s.Time, m.Value
		} else if m.Value != prev {
			lastMove, prev = s.Time, m.Value
		}
		if m.Value > 0 {
			everNonzero = true
		}
		lastSeen = s.Time
	}
	if !seen || !everNonzero {
		// Never active (single-node daemon with no summary pipeline):
		// silence is the steady state, not staleness.
		return Alert{}, false
	}
	age := lastSeen.Sub(lastMove)
	if span := lastSeen.Sub(firstSeen); age < d.maxAge || span < d.maxAge {
		return Alert{}, false
	}
	return Alert{
		Code:      d.code,
		Severity:  d.severity,
		Metric:    d.counter,
		Value:     age.Seconds(),
		Threshold: d.maxAge.Seconds(),
		Evidence: fmt.Sprintf("%s stuck at %s for %s (limit %s)",
			d.counter, formatFloat(prev), age.Round(time.Second), d.maxAge),
	}, true
}

// RateDetector fires when a counter's average rate across the window
// exceeds a per-minute bound — election transitions churning instead of
// settling.
type RateDetector struct {
	code      string
	severity  string
	counter   string
	maxPerMin float64
}

// NewRateDetector builds a rate detector over one counter.
func NewRateDetector(code, severity, counter string, maxPerMin float64) *RateDetector {
	return &RateDetector{code: code, severity: severity, counter: counter, maxPerMin: maxPerMin}
}

// Code implements Detector.
func (d *RateDetector) Code() string { return d.code }

// Examine implements Detector.
func (d *RateDetector) Examine(samples []Sample) (Alert, bool) {
	xs, ys := series(samples, d.counter)
	if len(xs) < 2 {
		return Alert{}, false
	}
	span := xs[len(xs)-1] - xs[0]
	if span <= 0 {
		return Alert{}, false
	}
	delta := ys[len(ys)-1] - ys[0]
	if delta < 0 {
		// Counter reset inside the window (restart): count only what
		// accumulated after it.
		delta = ys[len(ys)-1]
	}
	perMin := delta / span * 60
	if perMin < d.maxPerMin {
		return Alert{}, false
	}
	return Alert{
		Code:      d.code,
		Severity:  d.severity,
		Metric:    d.counter,
		Value:     perMin,
		Threshold: d.maxPerMin,
		Evidence: fmt.Sprintf("%s advanced %s in %s (%.1f/min, limit %.1f/min)",
			d.counter, formatFloat(delta), (time.Duration(span * float64(time.Second))).Round(time.Second), perMin, d.maxPerMin),
	}, true
}

// QuantileStepDetector splits the window in half, derives each half's
// windowed quantile of a histogram via DeltaSnapshot, and fires when the
// recent half's quantile stepped up by more than a factor — the store
// append path suddenly slower. The factor should be at least 4: the
// power-of-two buckets quantize quantiles, so one real doubling is the
// smallest observable step.
type QuantileStepDetector struct {
	code     string
	severity string
	metric   string
	q        float64
	factor   float64
	minCount uint64 // per-half observation floor; quiet halves are noise
}

// NewQuantileStepDetector builds a p-quantile step detector over one
// *_seconds histogram.
func NewQuantileStepDetector(code, severity, metric string, q, factor float64, minCount uint64) *QuantileStepDetector {
	return &QuantileStepDetector{code: code, severity: severity, metric: metric,
		q: q, factor: factor, minCount: minCount}
}

// Code implements Detector.
func (d *QuantileStepDetector) Code() string { return d.code }

// Examine implements Detector.
func (d *QuantileStepDetector) Examine(samples []Sample) (Alert, bool) {
	if len(samples) < MinDetectorSamples {
		return Alert{}, false
	}
	mid := len(samples) / 2
	firstM, ok1 := samples[0].Metric(d.metric)
	midM, ok2 := samples[mid].Metric(d.metric)
	lastM, ok3 := samples[len(samples)-1].Metric(d.metric)
	if !ok1 || !ok2 || !ok3 || lastM.Kind != KindHistogram {
		return Alert{}, false
	}
	baseline := DeltaSnapshot(firstM, midM)
	recent := DeltaSnapshot(midM, lastM)
	if baseline.Count < d.minCount || recent.Count < d.minCount {
		return Alert{}, false
	}
	bq := baseline.Quantile(d.q)
	rq := recent.Quantile(d.q)
	if bq <= 0 || rq < bq*d.factor {
		return Alert{}, false
	}
	return Alert{
		Code:      d.code,
		Severity:  d.severity,
		Metric:    d.metric,
		Value:     rq,
		Threshold: bq * d.factor,
		Evidence: fmt.Sprintf("%s p%g stepped %ss -> %ss (x%.1f, limit x%.1f)",
			d.metric, d.q*100, formatFloat(bq), formatFloat(rq), rq/bq, d.factor),
	}, true
}

// SpikeDetector splits the window in half and fires when a counter's
// recent-half rate both clears an absolute per-minute floor and exceeds
// the baseline half's rate by a factor — tenant denials bursting above
// their background level. A silent baseline plus an over-floor recent
// half also fires: a spike from zero is the clearest spike there is.
type SpikeDetector struct {
	code      string
	severity  string
	counter   string
	factor    float64
	minPerMin float64
}

// NewSpikeDetector builds a spike detector over one counter.
func NewSpikeDetector(code, severity, counter string, factor, minPerMin float64) *SpikeDetector {
	return &SpikeDetector{code: code, severity: severity, counter: counter,
		factor: factor, minPerMin: minPerMin}
}

// Code implements Detector.
func (d *SpikeDetector) Code() string { return d.code }

// Examine implements Detector.
func (d *SpikeDetector) Examine(samples []Sample) (Alert, bool) {
	xs, ys := series(samples, d.counter)
	if len(xs) < MinDetectorSamples {
		return Alert{}, false
	}
	mid := len(xs) / 2
	baseRate := windowRate(xs[:mid+1], ys[:mid+1])
	recentRate := windowRate(xs[mid:], ys[mid:])
	if recentRate < d.minPerMin {
		return Alert{}, false
	}
	if baseRate > 0 && recentRate < baseRate*d.factor {
		return Alert{}, false
	}
	limit := d.minPerMin
	if baseRate > 0 {
		limit = baseRate * d.factor
	}
	return Alert{
		Code:      d.code,
		Severity:  d.severity,
		Metric:    d.counter,
		Value:     recentRate,
		Threshold: limit,
		Evidence: fmt.Sprintf("%s rate %.1f/min vs baseline %.1f/min (limit %.1f/min)",
			d.counter, recentRate, baseRate, limit),
	}, true
}

// windowRate is a counter's per-minute rate over (x, y) points, clamping
// resets to zero.
func windowRate(xs, ys []float64) float64 {
	span := xs[len(xs)-1] - xs[0]
	if span <= 0 {
		return 0
	}
	delta := ys[len(ys)-1] - ys[0]
	if delta < 0 {
		delta = ys[len(ys)-1]
	}
	return delta / span * 60
}

// Thresholds parameterizes StandardDetectors; zero fields take the
// listed defaults, negative fields disable that detector.
type Thresholds struct {
	// GoroutinesPerMin fires goroutine_growth at this fitted slope
	// (default 30/min sustained across the window).
	GoroutinesPerMin float64
	// HeapBytesPerMin fires memory_growth at this fitted heap slope
	// (default 8 MiB/min).
	HeapBytesPerMin float64
	// SummaryStaleAfter fires summary_stale when summary pushes stall
	// this long (default 5m).
	SummaryStaleAfter time.Duration
	// ElectionsPerMin fires election_flap at this transition rate
	// (default 6/min).
	ElectionsPerMin float64
	// AppendP99Factor fires append_latency_step when the recent-half
	// store append p99 is this many times the baseline half (default 8;
	// minimum meaningful value is 4 given power-of-two buckets).
	AppendP99Factor float64
	// DenialsPerMin is the absolute floor for denial_spike (default
	// 30/min, with an 8x over-baseline factor).
	DenialsPerMin float64
}

func (t Thresholds) withDefaults() Thresholds {
	if t.GoroutinesPerMin == 0 {
		t.GoroutinesPerMin = 30
	}
	if t.HeapBytesPerMin == 0 {
		t.HeapBytesPerMin = 8 << 20
	}
	if t.SummaryStaleAfter == 0 {
		t.SummaryStaleAfter = 5 * time.Minute
	}
	if t.ElectionsPerMin == 0 {
		t.ElectionsPerMin = 6
	}
	if t.AppendP99Factor == 0 {
		t.AppendP99Factor = 8
	}
	if t.DenialsPerMin == 0 {
		t.DenialsPerMin = 30
	}
	return t
}

// StandardDetectors returns the stock detector set over the repo's
// metric families, tuned by t. Disabled (negative-threshold) detectors
// are omitted.
func StandardDetectors(t Thresholds) []Detector {
	t = t.withDefaults()
	var out []Detector
	if t.GoroutinesPerMin > 0 {
		out = append(out, NewGrowthDetector(AlertGoroutineGrowth, SeverityCritical,
			"runtime_goroutines", t.GoroutinesPerMin, 0.5))
	}
	if t.HeapBytesPerMin > 0 {
		out = append(out, NewGrowthDetector(AlertMemoryGrowth, SeverityCritical,
			"runtime_heap_alloc_bytes", t.HeapBytesPerMin, 0.25))
	}
	if t.SummaryStaleAfter > 0 {
		out = append(out, NewStalenessDetector(AlertSummaryStale, SeverityWarning,
			"discovery_summary_pushes_total", t.SummaryStaleAfter))
	}
	if t.ElectionsPerMin > 0 {
		out = append(out, NewRateDetector(AlertElectionFlap, SeverityWarning,
			"discovery_election_transitions_total", t.ElectionsPerMin))
	}
	if t.AppendP99Factor > 0 {
		out = append(out, NewQuantileStepDetector(AlertAppendLatencyStep, SeverityWarning,
			"store_append_seconds", 0.99, t.AppendP99Factor, 16))
	}
	if t.DenialsPerMin > 0 {
		out = append(out, NewSpikeDetector(AlertDenialSpike, SeverityWarning,
			"tenant_denied_total", 8, t.DenialsPerMin))
	}
	return out
}

// WatchdogConfig wires a watchdog. History and Detectors are required.
type WatchdogConfig struct {
	// History supplies detector windows: the one the sampler writes.
	History *History
	// Detectors run each sweep; one alert lifecycle per Code.
	Detectors []Detector
	// Interval is the sweep cadence (default 30s).
	Interval time.Duration
	// Window is the sample span each sweep examines (default 10x
	// Interval, or MinWindow of the sampling cadence when that is longer).
	Window time.Duration
	// ResolveAfter is how many consecutive quiet sweeps retire an
	// active alert (default 2).
	ResolveAfter int
	// Recorder receives fired alerts; nil records nowhere.
	Recorder *Recorder
	// OnAlert, when set, runs once per firing transition (not per
	// sweep) outside the watchdog lock; sdpd logs the alert.
	OnAlert func(Alert)
}

// Watchdog runs the detector sweep on its own goroutine; see the package
// comment for the lifecycle.
type Watchdog struct {
	cfg WatchdogConfig

	mu     sync.Mutex
	active map[string]*activeAlert

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

type activeAlert struct {
	alert Alert
	quiet int // consecutive non-firing sweeps
}

// NewWatchdog builds (but does not start) a watchdog over a history
// sampled every sampleEvery. The default window depends on both cadences:
// ten sweeps of history, and never fewer samples than the detectors need
// — a fast sweep over a slow sampler would otherwise examine two-sample
// windows forever and report "watching" with nothing able to fire.
func NewWatchdog(cfg WatchdogConfig, sampleEvery time.Duration) *Watchdog {
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = max(10*cfg.Interval, MinWindow(sampleEvery))
	}
	if cfg.ResolveAfter <= 0 {
		cfg.ResolveAfter = 2
	}
	return &Watchdog{
		cfg:    cfg,
		active: make(map[string]*activeAlert),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start launches the sweep loop.
func (w *Watchdog) Start() {
	go w.loop()
}

func (w *Watchdog) loop() {
	defer close(w.done)
	t := time.NewTicker(w.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.RunOnce()
		case <-w.stop:
			return
		}
	}
}

// Stop halts the sweep loop and joins it. Idempotent; active alerts stay
// readable afterwards.
func (w *Watchdog) Stop() {
	w.once.Do(func() {
		close(w.stop)
		<-w.done
	})
}

// RunOnce executes one detector sweep and returns the alerts that fired
// (i.e. newly transitioned to active) during it. Exported so tests and
// one-shot tools can drive the watchdog without its goroutine.
func (w *Watchdog) RunOnce() []Alert {
	samples := w.cfg.History.Recent(w.cfg.Window)
	now := time.Now()
	var fired []Alert

	w.mu.Lock()
	for _, d := range w.cfg.Detectors {
		code := d.Code()
		alert, firing := d.Examine(samples)
		st := w.active[code]
		switch {
		case firing && st == nil:
			alert.At = now
			alert.Window = w.cfg.Window
			w.active[code] = &activeAlert{alert: alert}
			fired = append(fired, alert)
		case firing:
			// Still firing: refresh the reading, reset the quiet run.
			at := st.alert.At
			st.alert = alert
			st.alert.At = at
			st.alert.Window = w.cfg.Window
			st.quiet = 0
		case st != nil:
			st.quiet++
			if st.quiet >= w.cfg.ResolveAfter {
				delete(w.active, code)
				alertActive.With(code).Set(0)
				alertResolvedTotal.Inc()
			}
		}
	}
	w.mu.Unlock()

	for _, a := range fired {
		alertFiredTotal.With(a.Code).Inc()
		alertActive.With(a.Code).Set(1)
		if w.cfg.Recorder != nil {
			w.cfg.Recorder.RecordAlert(a)
		}
		if w.cfg.OnAlert != nil {
			w.cfg.OnAlert(a)
		}
	}
	watchdogSweepsTotal.Inc()
	return fired
}

// Active returns the currently-firing alerts sorted by code.
func (w *Watchdog) Active() []Alert {
	w.mu.Lock()
	out := make([]Alert, 0, len(w.active))
	for _, st := range w.active {
		out = append(out, st.alert)
	}
	w.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Code < out[b].Code })
	return out
}

// Watchdog instruments, registered at package init.
var (
	alertFiredTotal = NewLabeledCounter("alert_fired_total",
		"drift-watchdog alerts fired, by code", "code")
	alertResolvedTotal = NewCounter("alert_resolved_total",
		"active alerts retired after enough consecutive quiet sweeps")
	alertActive = NewLabeledGauge("alert_active",
		"drift-watchdog alerts currently firing (1 = active), by code", "code")
	watchdogSweepsTotal = NewCounter("alert_watchdog_sweeps_total",
		"detector sweeps executed by drift watchdogs")
)
