package telemetry

// Runtime collector: process-level drift signals — goroutine count, heap
// occupancy, GC pauses, open file descriptors — sampled into the Default
// registry as runtime_* metrics. SampleRuntime is designed to run as a
// Sampler's Collect hook so every journal tick carries current readings;
// the soak watchdog's growth detectors regress over exactly these series.
//
// Everything here is stdlib-only: runtime.ReadMemStats for heap and GC
// state (a brief stop-the-world, fine at multi-second cadences; do not
// call per request) and /proc/self/fd for the descriptor count, which
// degrades to -1 on platforms without procfs.

import (
	"os"
	"runtime"
	"sync"
	"time"
)

var (
	runtimeGoroutines = NewGauge("runtime_goroutines",
		"live goroutines in the process")
	runtimeHeapAllocBytes = NewGauge("runtime_heap_alloc_bytes",
		"bytes of live heap objects (runtime.MemStats.HeapAlloc)")
	runtimeHeapObjects = NewGauge("runtime_heap_objects",
		"live objects on the heap")
	runtimeSysBytes = NewGauge("runtime_sys_bytes",
		"total bytes obtained from the OS by the Go runtime (RSS upper bound)")
	runtimeOpenFds = NewGauge("runtime_open_fds",
		"open file descriptors per /proc/self/fd (-1 where procfs is unavailable)")
	runtimeGcCyclesTotal = NewCounter("runtime_gc_cycles_total",
		"completed garbage-collection cycles")
	runtimeGcPauseSeconds = NewHistogram("runtime_gc_pause_seconds",
		"stop-the-world pause latency of completed GC cycles")
	runtimeUptimeSeconds = NewFloatGauge("runtime_uptime_seconds",
		"seconds since this process first sampled runtime metrics")
)

// rtState remembers the last GC cycle folded into the pause histogram so
// repeated SampleRuntime calls observe each pause exactly once.
var rtState struct {
	mu        sync.Mutex
	started   time.Time
	lastNumGC uint32
}

// SampleRuntime refreshes every runtime_* metric from the Go runtime and
// procfs. Safe for concurrent use; intended as SamplerConfig.Collect.
func SampleRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	runtimeGoroutines.Set(int64(runtime.NumGoroutine()))
	runtimeHeapAllocBytes.Set(int64(ms.HeapAlloc))
	runtimeHeapObjects.Set(int64(ms.HeapObjects))
	runtimeSysBytes.Set(int64(ms.Sys))
	runtimeOpenFds.Set(countOpenFds())

	rtState.mu.Lock()
	if rtState.started.IsZero() {
		rtState.started = time.Now()
	}
	runtimeUptimeSeconds.Set(time.Since(rtState.started).Seconds())
	// PauseNs is a circular buffer of the last 256 pause durations,
	// indexed by (cycle-1) mod 256; fold in only the cycles completed
	// since the previous sample.
	from := rtState.lastNumGC
	if ms.NumGC > from {
		runtimeGcCyclesTotal.Add(uint64(ms.NumGC - from))
		if ms.NumGC-from > uint32(len(ms.PauseNs)) {
			from = ms.NumGC - uint32(len(ms.PauseNs))
		}
		for c := from + 1; c <= ms.NumGC; c++ {
			runtimeGcPauseSeconds.ObserveInt(int64(ms.PauseNs[(c+255)%256]))
		}
		rtState.lastNumGC = ms.NumGC
	}
	rtState.mu.Unlock()
}

// countOpenFds counts entries in /proc/self/fd, or returns -1 where the
// procfs view does not exist (non-Linux platforms).
func countOpenFds() int64 {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	// The ReadDir call itself holds one descriptor on the directory;
	// exclude it so the gauge reflects steady-state usage.
	n := int64(len(ents)) - 1
	if n < 0 {
		n = 0
	}
	return n
}
