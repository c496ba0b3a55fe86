package telemetry

import (
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"sariadne/internal/testutil"
)

func TestSampleRuntimePopulatesGauges(t *testing.T) {
	SampleRuntime()
	if got := runtimeGoroutines.Value(); got < 1 {
		t.Fatalf("runtime_goroutines = %d, want >= 1", got)
	}
	if got := runtimeHeapAllocBytes.Value(); got <= 0 {
		t.Fatalf("runtime_heap_alloc_bytes = %d, want > 0", got)
	}
	if got := runtimeSysBytes.Value(); got <= 0 {
		t.Fatalf("runtime_sys_bytes = %d, want > 0", got)
	}
	if got := runtimeUptimeSeconds.Value(); got < 0 {
		t.Fatalf("runtime_uptime_seconds = %v, want >= 0", got)
	}
}

func TestSampleRuntimeSeesGoroutineGrowth(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	const n = 50
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func() {
			started <- struct{}{}
			<-stop
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	SampleRuntime()
	// No before/after delta: goroutines left by earlier tests may still be
	// exiting (under -race they often are), so a baseline can shrink. The n
	// parked here plus this one must all be counted.
	if got := runtimeGoroutines.Value(); got < n+1 {
		t.Fatalf("runtime_goroutines = %d after leaking %d, want >= %d", got, n, n+1)
	}
}

func TestSampleRuntimeCountsGCCycles(t *testing.T) {
	SampleRuntime()
	before := runtimeGcCyclesTotal.Value()
	pausesBefore := runtimeGcPauseSeconds.Count()
	runtime.GC()
	runtime.GC()
	SampleRuntime()
	if got := runtimeGcCyclesTotal.Value(); got < before+2 {
		t.Fatalf("runtime_gc_cycles_total = %d, want >= %d", got, before+2)
	}
	if got := runtimeGcPauseSeconds.Count(); got < pausesBefore+2 {
		t.Fatalf("gc pause observations = %d, want >= %d", got, pausesBefore+2)
	}
	// A second sample with no GC in between must not re-observe pauses.
	mid := runtimeGcPauseSeconds.Count()
	SampleRuntime()
	// GC may run on its own between the two samples; only assert we did
	// not double-count the cycles already folded in.
	if got := runtimeGcPauseSeconds.Count(); got < mid {
		t.Fatalf("pause observations went backwards: %d -> %d", mid, got)
	}
}

func TestCountOpenFds(t *testing.T) {
	n := countOpenFds()
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		if n != -1 {
			t.Fatalf("countOpenFds = %d without procfs, want -1", n)
		}
		return
	}
	if n < 1 {
		t.Fatalf("countOpenFds = %d, want >= 1 (stdio)", n)
	}
	f, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n2 := countOpenFds(); n2 < n+1 {
		t.Fatalf("countOpenFds after extra open = %d, want >= %d", n2, n+1)
	}
}

func TestSamplerHooksRun(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("hooked_total", "")

	var mu sync.Mutex
	collects := 0
	var samples []Sample
	s := StartSampler(reg, 5*time.Millisecond, NewHistory(16), SamplerConfig{
		Collect: func() {
			mu.Lock()
			defer mu.Unlock()
			collects++
			c.Inc()
		},
		OnSample: func(sm Sample) {
			mu.Lock()
			defer mu.Unlock()
			samples = append(samples, sm)
		},
	})
	testutil.WaitFor(t, time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(samples) >= 3
	}, "sampler hooks never ran")
	s.Stop()

	mu.Lock()
	defer mu.Unlock()
	if collects != len(samples) {
		t.Fatalf("collects = %d, samples = %d, want equal", collects, len(samples))
	}
	// Collect runs before the snapshot, so each sample sees its own tick.
	for i, sm := range samples {
		m, ok := sm.Metric("hooked_total")
		if !ok || m.Value != float64(i+1) {
			t.Fatalf("sample %d sees hooked_total=%v, want %d", i, m.Value, i+1)
		}
	}
}
