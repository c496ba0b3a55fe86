// Package testutil holds shared test helpers for the S-Ariadne test
// suites. Its main export, WaitFor, replaces time.Sleep-based
// synchronization: instead of guessing how long the goroutine meshes
// (discovery loops, elections, simnet delivery) need, tests poll for the
// condition they actually care about. The sleeptest analyzer in
// internal/analysis enforces the habit.
package testutil

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// PollInterval is how often WaitFor re-evaluates its condition. 2ms is
// fine-grained enough for the discovery tick intervals used in tests
// (10ms and below) while keeping the race detector's slowdown harmless.
const PollInterval = 2 * time.Millisecond

// failer is the subset of testing.TB WaitFor needs; taking the interface
// keeps testutil importable from benchmarks and example tests alike.
type failer interface {
	Helper()
	Fatalf(format string, args ...any)
}

// WaitFor polls cond every PollInterval until it returns true or timeout
// elapses, then fails the test with the optional printf-style message.
// The condition is evaluated once before any waiting, so already-true
// conditions return immediately.
func WaitFor(t failer, timeout time.Duration, cond func() bool, msgAndArgs ...any) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			msg := "condition not reached"
			if len(msgAndArgs) > 0 {
				msg = fmt.Sprintf(msgAndArgs[0].(string), msgAndArgs[1:]...)
			}
			t.Fatalf("timed out after %v: %s", timeout, msg)
			// Fatalf normally does not return; the explicit return keeps
			// non-testing.T failers (which do return) out of a spin loop.
			return
		}
		time.Sleep(PollInterval)
	}
}

// Eventually is WaitFor with a conventional default timeout, for the
// common "the mesh settles within a few seconds" waits.
func Eventually(t failer, cond func() bool, msgAndArgs ...any) {
	t.Helper()
	WaitFor(t, 5*time.Second, cond, msgAndArgs...)
}

// Clock is a manually advanced clock for components that take an
// injectable `now func() time.Time` (the tenant rate limiter, quota
// windows). Tests drive refill and window rollover deterministically with
// Advance instead of sleeping. Safe for concurrent use, so -race tests
// can hammer a limiter from many goroutines while another advances time.
type Clock struct {
	mu sync.Mutex
	t  time.Time
}

// NewClock returns a clock frozen at start. A zero start picks an
// arbitrary fixed epoch so durations still behave.
func NewClock(start time.Time) *Clock {
	if start.IsZero() {
		start = time.Date(2006, time.November, 27, 12, 0, 0, 0, time.UTC)
	}
	return &Clock{t: start}
}

// Now returns the current fake time; pass c.Now as the `now` dependency.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// LiveHeapBytes is what the heap holds once the collector has run: the
// bytes of objects still reachable, which is what the byte-budget tests
// hold a stored advertisement or a graph to.
func LiveHeapBytes() int64 {
	runtime.GC()
	runtime.GC() // the first run may leave finalizers and pool victims behind
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return int64(sample[0].Value.Uint64())
}
