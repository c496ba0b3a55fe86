// Command soaksmoke is the CI miniature of an overnight soak behind
// `make soak-smoke`: it builds sdpd and sdpctl, boots three daemons
// federated over loopback with 500ms telemetry sampling, per-daemon
// durable journals and a 1s drift watchdog, drives real traffic across
// the backbone, and asserts the whole soak-horizon pipeline in under
// ninety seconds:
//
//   - healthy federation: every watchdog sweeps repeatedly and GET
//     /alerts stays silent on all three daemons (no active, no fired),
//     and `sdpctl alerts` exits 0;
//   - durable history: one daemon restarts onto the same journal
//     directory and GET /timeseries (source "journal") still serves every
//     pre-restart window, then windows from after the restart beside
//     them — the journal refilled the history the new process samples
//     into.
//
// A 90-second run sees boot transients that hours of real soak average
// out, so the smoke passes detector thresholds sitting well above any
// boot wobble — silence stays meaningful. That the watchdog fires on a
// real leak is cmd/sdpd's TestWatchdogFiresOnGoroutineLeak.
//
// Usage:
//
//	go run ./cmd/soaksmoke
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"sariadne/internal/smoke"
	"sariadne/internal/telemetry"
)

const smokeDeadline = 85 * time.Second

// samplePeriod is the smoke's telemetry cadence; requestHistory asks a
// daemon for everything it retains of its request-latency curve.
const (
	samplePeriod   = 500 * time.Millisecond
	requestMetric  = "sdpd_request_seconds"
	requestHistory = "/timeseries?metric=" + requestMetric + "&since=1h"
)

// soakFlags tune every daemon for a compressed soak: fast sampling, a
// short watch window, and thresholds above boot transients (a daemon
// gains a dozen goroutines and doubles a tiny heap while starting up;
// neither is drift).
var soakFlags = []string{
	"-sample-every", samplePeriod.String(),
	"-watch-every", "1s",
	"-watch-window", "20s",
	"-watch-goroutine-growth", "600", // 10/s
	"-watch-heap-growth-bytes", "268435456", // 256 MiB/min
	"-watch-flap-per-min", "600", // boot/restart elections are not flap
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "soaksmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("soaksmoke: ok")
}

func run() error {
	tmp, err := os.MkdirTemp("", "soaksmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	sdpd, err := smoke.Build(tmp, "sdpd")
	if err != nil {
		return err
	}
	sdpctl, err := smoke.Build(tmp, "sdpctl")
	if err != nil {
		return err
	}

	deadline := time.Now().Add(smokeDeadline)

	// Three daemons on loopback, each with its own durable journal.
	fed, err := smoke.BootFederation(sdpd, deadline, func(name string) []string {
		return append([]string{"-telemetry-journal", filepath.Join(tmp, "tj-"+name)}, soakFlags...)
	})
	if err != nil {
		return err
	}
	defer fed.Stop()
	a, b, c := fed[0], fed[1], fed[2]

	// Real traffic so the watchdog sweeps a live system, not an idle
	// one: register on B, resolve from C across the backbone.
	doc, err := os.ReadFile(smoke.MediaCenterDoc)
	if err != nil {
		return err
	}
	resp, err := fed.PublishAndResolve(deadline, string(doc), "")
	if err != nil {
		return err
	}
	if len(resp.Hits) == 0 {
		return fmt.Errorf("query on %s returned no hits", c.Name)
	}

	// Healthy phase: every watchdog must have swept several times and
	// found nothing — fault-free soak minutes stay silent.
	for _, d := range fed {
		if err := awaitSweeps(d, deadline, 5); err != nil {
			return err
		}
		if err := expectSilent(d); err != nil {
			return err
		}
	}
	if err := runSdpctlAlerts(sdpctl, a, "watchdog running"); err != nil {
		return err
	}

	// Durable history: remember the curve B has journaled, kill it, and
	// reboot it on the same addresses and journal directory. Every
	// pre-restart window must still serve, and windows sampled by the new
	// process must join them.
	var pre telemetry.Timeseries
	fetched := time.Now()
	if err := getJSON(b, requestHistory, &pre); err != nil {
		return err
	}
	preWindows := pre.Series[requestMetric]
	if pre.Source != "journal" || pre.Samples < 4 || len(preWindows) == 0 {
		return fmt.Errorf("daemon %s journaled %d samples (%d windows) from %q before restart; want >=4 from the journal",
			b.Name, pre.Samples, len(preWindows), pre.Source)
	}
	// Both replies measure elapsed_ms from the same oldest sample (an hour
	// reaches past the smoke's start). The last window fetched closed no
	// later than the fetch, so a window closing more than the time since
	// then plus a sampling period after it was sampled by the new process.
	lastPre := preWindows[len(preWindows)-1].ElapsedMs
	afterRestart := lastPre + (time.Since(fetched) + samplePeriod).Milliseconds()
	if err := b.Restart(); err != nil {
		return err
	}
	if err := b.AwaitUp(deadline); err != nil {
		return err
	}
	return b.Await(deadline, "served windows from both sides of its restart", func() error {
		var post telemetry.Timeseries
		if err := getJSON(b, requestHistory, &post); err != nil {
			return err
		}
		if post.Source != "journal" || post.Samples < pre.Samples {
			return fmt.Errorf("%d samples from %q after restart; want >=%d from the journal (history lost)",
				post.Samples, post.Source, pre.Samples)
		}
		before, after := 0, 0
		for _, p := range post.Series[requestMetric] {
			switch {
			case p.ElapsedMs <= lastPre+1: // journal stamps are whole milliseconds
				before++
			case p.ElapsedMs > afterRestart:
				after++
			}
		}
		if before < len(preWindows) || after == 0 {
			return fmt.Errorf("%d windows from before the restart (want %d), %d from after (want >=1)",
				before, len(preWindows), after)
		}
		return nil
	})
}

// getJSON fetches one gateway path and decodes the reply into v.
func getJSON(d *smoke.Daemon, path string, v any) error {
	body, _, err := d.Get(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("daemon %s: malformed %s: %w", d.Name, path, err)
	}
	return nil
}

// awaitSweeps polls /metrics until the watchdog has swept at least n
// times: silence only counts after the detectors actually looked.
func awaitSweeps(d *smoke.Daemon, deadline time.Time, n float64) error {
	return d.Await(deadline, fmt.Sprintf("reached %v watchdog sweeps", n), func() error {
		body, _, err := d.Get("/metrics")
		if err != nil {
			return err
		}
		if v, _ := smoke.Sample(body, "alert_watchdog_sweeps_total"); v < n {
			return fmt.Errorf("alert_watchdog_sweeps_total is %v", v)
		}
		return nil
	})
}

// expectSilent fails unless the daemon is watching and has never fired.
func expectSilent(d *smoke.Daemon) error {
	var v telemetry.AlertReport
	if err := getJSON(d, "/alerts", &v); err != nil {
		return err
	}
	if !v.Watching {
		return fmt.Errorf("daemon %s reports no watchdog", d.Name)
	}
	if all := append(v.Active, v.Fired...); len(all) > 0 {
		return fmt.Errorf("daemon %s is not silent: %d active, %d fired (first: %+v)",
			d.Name, len(v.Active), len(v.Fired), all[0])
	}
	return nil
}

// runSdpctlAlerts runs `sdpctl alerts` against a silent daemon and checks
// that it exits 0 (1 would mean an alert is active) and that the output
// mentions want.
func runSdpctlAlerts(bin string, d *smoke.Daemon, want string) error {
	cmd := exec.Command(bin, "alerts", d.HTTP)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("sdpctl alerts on %s: %w; output:\n%s", d.Name, err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte(want)) {
		return fmt.Errorf("sdpctl alerts on %s did not mention %q; output:\n%s", d.Name, want, out.String())
	}
	return nil
}
