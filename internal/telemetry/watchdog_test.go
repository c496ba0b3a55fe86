package telemetry

import (
	"testing"
	"time"

	"sariadne/internal/testutil"
)

// syntheticWindow builds n samples one second apart ending now, with
// per-sample metric values supplied by gen(i).
func syntheticWindow(n int, gen func(i int) []MetricSnapshot) []Sample {
	base := time.Now().Add(-time.Duration(n) * time.Second)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Sample{Time: base.Add(time.Duration(i) * time.Second), Metrics: gen(i)})
	}
	return out
}

func gaugeAt(name string, v float64) []MetricSnapshot {
	return []MetricSnapshot{{Name: name, Kind: KindGauge, Value: v}}
}

func counterAt(name string, v float64) []MetricSnapshot {
	return []MetricSnapshot{{Name: name, Kind: KindCounter, Value: v}}
}

func TestGrowthDetectorFiresOnLeak(t *testing.T) {
	d := NewGrowthDetector(AlertGoroutineGrowth, SeverityCritical, "runtime_goroutines", 30, 0.5)
	// 100 goroutines growing by 10/sec = 600/min across 30 samples.
	leak := syntheticWindow(30, func(i int) []MetricSnapshot {
		return gaugeAt("runtime_goroutines", float64(100+10*i))
	})
	a, firing := d.Examine(leak)
	if !firing {
		t.Fatal("leak window did not fire")
	}
	if a.Code != AlertGoroutineGrowth || a.Severity != SeverityCritical {
		t.Fatalf("alert = %+v", a)
	}
	if a.Value < 500 || a.Value > 700 {
		t.Fatalf("fitted slope = %.1f/min, want ~600", a.Value)
	}
	if a.Evidence == "" {
		t.Fatal("alert carries no evidence")
	}
}

func TestGrowthDetectorQuietOnSteadyState(t *testing.T) {
	d := NewGrowthDetector(AlertGoroutineGrowth, SeverityCritical, "runtime_goroutines", 30, 0.5)
	// Big but flat gauge with a one-unit wiggle.
	steady := syntheticWindow(30, func(i int) []MetricSnapshot {
		return gaugeAt("runtime_goroutines", float64(5000+i%2))
	})
	if _, firing := d.Examine(steady); firing {
		t.Fatal("steady window fired")
	}
	// Fast slope but tiny fraction of a large base must stay quiet too.
	bigBase := syntheticWindow(30, func(i int) []MetricSnapshot {
		return gaugeAt("runtime_goroutines", float64(100000+2*i))
	})
	if _, firing := d.Examine(bigBase); firing {
		t.Fatal("proportionally-insignificant growth fired")
	}
	// Too few samples: no verdict.
	if _, firing := d.Examine(syntheticWindow(3, func(i int) []MetricSnapshot {
		return gaugeAt("runtime_goroutines", float64(100*i))
	})); firing {
		t.Fatal("three-sample window fired")
	}
}

func TestStalenessDetector(t *testing.T) {
	d := NewStalenessDetector(AlertSummaryStale, SeverityWarning, "discovery_summary_pushes_total", 10*time.Second)
	// Counter moved early, then froze for the rest of the window.
	stale := syntheticWindow(30, func(i int) []MetricSnapshot {
		v := float64(i)
		if i > 5 {
			v = 5
		}
		return counterAt("discovery_summary_pushes_total", v)
	})
	a, firing := d.Examine(stale)
	if !firing {
		t.Fatal("stalled counter did not fire")
	}
	if a.Value < (24-1) || a.Code != AlertSummaryStale {
		t.Fatalf("alert = %+v, want ~24s staleness", a)
	}

	// Still moving: quiet.
	moving := syntheticWindow(30, func(i int) []MetricSnapshot {
		return counterAt("discovery_summary_pushes_total", float64(i))
	})
	if _, firing := d.Examine(moving); firing {
		t.Fatal("moving counter fired")
	}

	// Never nonzero (single-node daemon, no summary pipeline): quiet.
	silent := syntheticWindow(30, func(i int) []MetricSnapshot {
		return counterAt("discovery_summary_pushes_total", 0)
	})
	if _, firing := d.Examine(silent); firing {
		t.Fatal("never-active counter fired")
	}
}

func TestRateDetectorElectionFlap(t *testing.T) {
	d := NewRateDetector(AlertElectionFlap, SeverityWarning, "discovery_election_transitions_total", 6)
	// One transition per second = 60/min.
	flapping := syntheticWindow(30, func(i int) []MetricSnapshot {
		return counterAt("discovery_election_transitions_total", float64(i))
	})
	a, firing := d.Examine(flapping)
	if !firing {
		t.Fatal("flapping window did not fire")
	}
	if a.Value < 50 || a.Value > 70 {
		t.Fatalf("rate = %.1f/min, want ~60", a.Value)
	}
	// One transition over the whole window = 2/min: quiet.
	settled := syntheticWindow(30, func(i int) []MetricSnapshot {
		v := 0.0
		if i > 15 {
			v = 1
		}
		return counterAt("discovery_election_transitions_total", v)
	})
	if _, firing := d.Examine(settled); firing {
		t.Fatal("settled window fired")
	}
	// Counter reset mid-window (daemon restart): only post-reset
	// transitions count, so one transition after a restart stays quiet
	// even though the raw delta is -999.
	reset := syntheticWindow(30, func(i int) []MetricSnapshot {
		v := float64(1000)
		if i > 15 {
			v = 1
		}
		return counterAt("discovery_election_transitions_total", v)
	})
	if a, firing := d.Examine(reset); firing {
		t.Fatalf("reset window fired with rate %.1f/min", a.Value)
	}
}

func TestQuantileStepDetector(t *testing.T) {
	d := NewQuantileStepDetector(AlertAppendLatencyStep, SeverityWarning, "store_append_seconds", 0.99, 8, 16)
	// Build cumulative histogram snapshots: first half fast appends
	// (~1ms), second half slow ones (~100ms).
	hist := func(fast, slow uint64) []MetricSnapshot {
		var b []BucketCount
		cum := fast
		b = append(b, BucketCount{UpperBound: 0.002, Count: cum})
		if slow > 0 {
			cum += slow
			b = append(b, BucketCount{UpperBound: 0.15, Count: cum})
		}
		return []MetricSnapshot{{Name: "store_append_seconds", Kind: KindHistogram,
			Count: cum, Sum: float64(fast)*0.001 + float64(slow)*0.1, Buckets: b}}
	}
	// The split sample (index 10) must close an all-fast baseline half;
	// slow appends start strictly after it.
	stepped := syntheticWindow(20, func(i int) []MetricSnapshot {
		if i <= 10 {
			return hist(uint64(10*(i+1)), 0)
		}
		return hist(110, uint64(10*(i-10)))
	})
	a, firing := d.Examine(stepped)
	if !firing {
		t.Fatal("latency step did not fire")
	}
	if a.Value < 0.1 {
		t.Fatalf("stepped p99 = %vs, want >= 0.1", a.Value)
	}
	// Uniform latency: quiet.
	flat := syntheticWindow(20, func(i int) []MetricSnapshot {
		return hist(uint64(10*(i+1)), 0)
	})
	if _, firing := d.Examine(flat); firing {
		t.Fatal("flat latency fired")
	}
	// Too few observations per half: quiet regardless of shape.
	thin := syntheticWindow(20, func(i int) []MetricSnapshot {
		if i <= 10 {
			return hist(uint64(i+1), 0)
		}
		return hist(11, uint64(i-10))
	})
	if _, firing := d.Examine(thin); firing {
		t.Fatal("under-minCount window fired")
	}
}

func TestSpikeDetectorDenials(t *testing.T) {
	d := NewSpikeDetector(AlertDenialSpike, SeverityWarning, "tenant_denied_total", 8, 30)
	// Quiet baseline, then 60/min of denials in the second half.
	spike := syntheticWindow(30, func(i int) []MetricSnapshot {
		v := 0.0
		if i > 15 {
			v = float64(i-15) * 1.0
		}
		return counterAt("tenant_denied_total", v)
	})
	a, firing := d.Examine(spike)
	if !firing {
		t.Fatal("denial spike did not fire")
	}
	if a.Code != AlertDenialSpike {
		t.Fatalf("alert = %+v", a)
	}
	// Steady low-level denials under the floor: quiet.
	trickle := syntheticWindow(30, func(i int) []MetricSnapshot {
		return counterAt("tenant_denied_total", float64(i)/10)
	})
	if _, firing := d.Examine(trickle); firing {
		t.Fatal("trickle fired")
	}
	// High but steady rate: over the floor in both halves, no spike
	// over baseline, quiet.
	steady := syntheticWindow(30, func(i int) []MetricSnapshot {
		return counterAt("tenant_denied_total", float64(i))
	})
	if _, firing := d.Examine(steady); firing {
		t.Fatal("steady rate fired despite flat baseline")
	}
}

func TestWatchdogLifecycle(t *testing.T) {
	log := NewHistory(64)
	rec := NewRecorder(4, 4)
	wd := NewWatchdog(WatchdogConfig{
		History:      log,
		Detectors:    []Detector{NewGrowthDetector(AlertGoroutineGrowth, SeverityCritical, "runtime_goroutines", 30, 0.5)},
		Interval:     time.Hour, // driven manually via RunOnce
		Window:       time.Hour,
		ResolveAfter: 2,
		Recorder:     rec,
	}, time.Second)

	var hooked []Alert
	wd.cfg.OnAlert = func(a Alert) { hooked = append(hooked, a) }

	// Healthy window: nothing fires.
	for _, s := range syntheticWindow(10, func(i int) []MetricSnapshot {
		return gaugeAt("runtime_goroutines", 100)
	}) {
		log.Add(s)
	}
	if fired := wd.RunOnce(); len(fired) != 0 || len(wd.Active()) != 0 {
		t.Fatalf("healthy sweep fired %v", fired)
	}

	// Leak: fires exactly once while it persists.
	for _, s := range syntheticWindow(20, func(i int) []MetricSnapshot {
		return gaugeAt("runtime_goroutines", float64(100+50*i))
	}) {
		log.Add(s)
	}
	fired := wd.RunOnce()
	if len(fired) != 1 || fired[0].Code != AlertGoroutineGrowth {
		t.Fatalf("leak sweep fired %v", fired)
	}
	if again := wd.RunOnce(); len(again) != 0 {
		t.Fatalf("second sweep re-fired %v", again)
	}
	if act := wd.Active(); len(act) != 1 || act[0].Code != AlertGoroutineGrowth {
		t.Fatalf("Active = %v", act)
	}
	if len(hooked) != 1 {
		t.Fatalf("OnAlert ran %d times, want 1", len(hooked))
	}
	if recs := rec.Alerts(); len(recs) != 1 || recs[0].Code != AlertGoroutineGrowth {
		t.Fatalf("recorder alerts = %v", recs)
	}

	// Recovery: after ResolveAfter quiet sweeps the alert retires.
	log2 := NewHistory(64)
	for _, s := range syntheticWindow(10, func(i int) []MetricSnapshot {
		return gaugeAt("runtime_goroutines", 100)
	}) {
		log2.Add(s)
	}
	wd.cfg.History = log2
	wd.RunOnce()
	if len(wd.Active()) != 1 {
		t.Fatal("alert resolved after a single quiet sweep (ResolveAfter=2)")
	}
	wd.RunOnce()
	if len(wd.Active()) != 0 {
		t.Fatal("alert still active after ResolveAfter quiet sweeps")
	}
	// A recurrence fires fresh.
	wd.cfg.History = log
	if fired := wd.RunOnce(); len(fired) != 1 {
		t.Fatalf("recurrence fired %v", fired)
	}
}

func TestWatchdogStartStop(t *testing.T) {
	wd := NewWatchdog(WatchdogConfig{
		History:   NewHistory(8),
		Detectors: StandardDetectors(Thresholds{}),
		Interval:  time.Millisecond,
	}, time.Second)
	before := watchdogSweepsTotal.Value()
	wd.Start()
	testutil.WaitFor(t, time.Second, func() bool {
		return watchdogSweepsTotal.Value() > before
	}, "watchdog never swept")
	wd.Stop()
	wd.Stop() // idempotent
}

func TestStandardDetectorsCoverage(t *testing.T) {
	dets := StandardDetectors(Thresholds{})
	want := map[string]bool{
		AlertGoroutineGrowth: true, AlertMemoryGrowth: true, AlertSummaryStale: true,
		AlertElectionFlap: true, AlertAppendLatencyStep: true, AlertDenialSpike: true,
	}
	for _, d := range dets {
		delete(want, d.Code())
	}
	if len(want) != 0 {
		t.Fatalf("standard set missing detectors: %v", want)
	}
	// Negative thresholds disable individual detectors.
	trimmed := StandardDetectors(Thresholds{GoroutinesPerMin: -1})
	if len(trimmed) != len(dets)-1 {
		t.Fatalf("disable left %d detectors, want %d", len(trimmed), len(dets)-1)
	}
}

// TestWatchdogDefaultWindowHoldsEnoughSamples: a 1 s sweep over a 5 s
// sampler. Ten sweep intervals are two or three samples — below every
// slope, step and spike detector's minimum — so the default window must
// also be worked out from the sampling cadence, or the watchdog reports
// "watching" while nothing can ever fire.
func TestWatchdogDefaultWindowHoldsEnoughSamples(t *testing.T) {
	const sampleEvery, sweepEvery = 5 * time.Second, time.Second
	h := NewHistory(64)
	wd := NewWatchdog(WatchdogConfig{
		History:   h,
		Detectors: StandardDetectors(Thresholds{}),
		Interval:  sweepEvery,
	}, sampleEvery)
	if wd.cfg.Window < MinWindow(sampleEvery) || wd.cfg.Window < 10*sweepEvery {
		t.Fatalf("default window %v; want >= 10 sweeps (%v) and >= %v", wd.cfg.Window, 10*sweepEvery, MinWindow(sampleEvery))
	}
	// A minute of a 150/s goroutine leak, sampled every 5 s up to a moment
	// ago (the sweep lands anywhere inside a sampling period).
	newest := time.Now().Add(-sampleEvery / 2)
	for i := 0; i < 12; i++ {
		h.Add(Sample{Time: newest.Add(time.Duration(i-11) * sampleEvery),
			Metrics: gaugeAt("runtime_goroutines", float64(20+150*5*i))})
	}
	if got := len(h.Recent(wd.cfg.Window)); got < MinDetectorSamples {
		t.Fatalf("default window %v holds %d samples at a %v cadence, detectors need %d",
			wd.cfg.Window, got, sampleEvery, MinDetectorSamples)
	}
	fired := wd.RunOnce()
	if len(fired) != 1 || fired[0].Code != AlertGoroutineGrowth {
		t.Fatalf("a 150/s goroutine ramp fired %v, want %s", fired, AlertGoroutineGrowth)
	}
	// A slow sweep keeps its ten intervals.
	slow := NewWatchdog(WatchdogConfig{History: h, Interval: time.Minute}, sampleEvery)
	if slow.cfg.Window != 10*time.Minute {
		t.Fatalf("default window over a 1m sweep = %v, want 10m", slow.cfg.Window)
	}
	// An explicit window is the operator's.
	explicit := NewWatchdog(WatchdogConfig{History: h, Interval: sweepEvery, Window: 7 * time.Second}, sampleEvery)
	if explicit.cfg.Window != 7*time.Second {
		t.Fatalf("explicit window overridden to %v", explicit.cfg.Window)
	}
}
