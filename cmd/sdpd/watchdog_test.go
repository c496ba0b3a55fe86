package main

import (
	"slices"
	"sync"
	"testing"
	"time"

	"sariadne/internal/telemetry"
	"sariadne/internal/testutil"
)

// TestWatchdogFiresOnGoroutineLeak is the soak drill in process: a daemon
// sampling and sweeping every 10 ms answers GET /alerts with nothing
// active while its process holds steady, and with goroutine_growth once
// goroutines start leaking in it. The sampler counts every goroutine of
// the process, so the test must not run in parallel with others.
func TestWatchdogFiresOnGoroutineLeak(t *testing.T) {
	const (
		window = 500 * time.Millisecond
		every  = 10 * time.Millisecond
		// perPoll goroutines leak each time WaitFor polls, some 1000/s;
		// maxLeak stays well under the race detector's goroutine limit.
		perPoll = 4
		maxLeak = 4000
	)
	cfg := bareConfig()
	cfg.sampleEvery, cfg.watchEvery, cfg.watchWindow = every, every, window
	// goroutine_growth alone, at 100/s: far above the few goroutines a
	// booting daemon adds, far below the leak.
	cfg.watch = telemetry.Thresholds{GoroutinesPerMin: 6000, HeapBytesPerMin: -1, SummaryStaleAfter: -1,
		ElectionsPerMin: -1, AppendP99Factor: -1, DenialsPerMin: -1}
	s := bootServer(t, cfg)

	active := func() []string {
		var view telemetry.AlertReport
		gatewayGet(t, s, "", "/alerts", &view)
		if !view.Watching {
			t.Fatal("GET /alerts reports no watchdog")
		}
		var codes []string
		for _, a := range view.Active {
			codes = append(codes, a.Code)
		}
		return codes
	}

	// Silence first, over two full windows of samples.
	testutil.WaitFor(t, 10*time.Second, func() bool {
		if codes := active(); len(codes) > 0 {
			t.Fatalf("alerts active before any leak: %v", codes)
		}
		return s.history.Len() >= int(2*window/every)
	}, "the sampler never filled two watchdog windows")

	release := make(chan struct{})
	var leaked sync.WaitGroup
	t.Cleanup(func() {
		close(release)
		leaked.Wait()
	})
	n := 0
	testutil.WaitFor(t, 10*time.Second, func() bool {
		for i := 0; i < perPoll && n < maxLeak; i++ {
			n++
			leaked.Add(1)
			go func() {
				defer leaked.Done()
				<-release
			}()
		}
		return slices.Contains(active(), telemetry.AlertGoroutineGrowth)
	}, "goroutine_growth never became active while goroutines leaked")
}
