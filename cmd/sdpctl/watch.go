package main

// Live time-series rendering over daemon /debug/vars endpoints: `sdpctl
// top -watch` re-renders the federation table at an interval, and `sdpctl
// watch` turns one daemon's histogram into a windowed quantile stream —
// each row is the latency distribution of the ops that happened since
// the previous scrape (cumulative bucket subtraction via
// telemetry.DeltaSnapshot), not the since-boot aggregate.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sariadne/internal/telemetry"
)

// Transient-failure retry for scrapes: a watch row should survive one
// dropped scrape (daemon restarting under it, listen queue hiccup)
// instead of printing "down" and losing the window anchor. Two retries
// with doubling backoff cover a restart gap without stalling a dead
// daemon's row for long.
const (
	scrapeRetries = 2
	scrapeBackoff = 200 * time.Millisecond
)

// scrapeWithRetry runs one scrape up to 1+scrapeRetries times, backing
// off between attempts.
func scrapeWithRetry[T any](scrape func() (T, error)) (T, error) {
	backoff := scrapeBackoff
	for attempt := 0; ; attempt++ {
		v, err := scrape()
		if err == nil || attempt == scrapeRetries {
			return v, err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// runTopWatch renders the top table, then every interval again, count
// times in total (count <= 0 with an interval means forever). A zero
// interval renders once: plain `sdpctl top`.
func runTopWatch(w io.Writer, addrs []string, timeout, interval time.Duration, count int) {
	runTop(w, addrs, timeout)
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for n := 1; count <= 0 || n < count; n++ {
		<-t.C
		fmt.Fprintln(w)
		runTop(w, addrs, timeout)
	}
}

// runWatch streams windowed quantiles of one histogram metric: scrape,
// subtract the previous cumulative snapshot, print the window's
// p50/p95/p99/p999. count <= 0 means run until interrupted.
func runWatch(w io.Writer, addr, metric string, timeout, interval time.Duration, count int) {
	client := httpClient(timeout)
	fmt.Fprintf(w, "watching %s on %s every %s\n", metric, addr, interval)
	fmt.Fprintf(w, "%-10s %8s %10s %10s %10s %10s %10s\n",
		"ELAPSED", "COUNT", "RATE/S", "P50", "P95", "P99", "P999")

	seconds := strings.HasSuffix(metric, "_seconds")
	quant := func(s telemetry.MetricSnapshot, q float64) string {
		if s.Count == 0 {
			return "-"
		}
		v := s.Quantile(q)
		if seconds {
			return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}

	var prev telemetry.MetricSnapshot
	havePrev := false
	start := time.Now()
	t := time.NewTicker(interval)
	defer t.Stop()
	for n := 0; count <= 0 || n < count; n++ {
		if n > 0 {
			<-t.C
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		snaps, err := scrapeWithRetry(func() (map[string]telemetry.MetricSnapshot, error) {
			return scrapeVars(client, addr)
		})
		if err != nil {
			fmt.Fprintf(w, "%-10s down: %v\n", elapsed, err)
			continue
		}
		cur, ok := snaps[metric]
		if !ok || cur.Kind != telemetry.KindHistogram {
			fmt.Fprintf(w, "%-10s no histogram %q at %s\n", elapsed, metric, addr)
			continue
		}
		if !havePrev {
			// First scrape anchors the window; nothing to diff yet.
			prev, havePrev = cur, true
			fmt.Fprintf(w, "%-10s (anchor: %d observations so far)\n", elapsed, cur.Count)
			continue
		}
		d := telemetry.DeltaSnapshot(prev, cur)
		prev = cur
		rate := "-"
		if interval > 0 {
			rate = strconv.FormatFloat(float64(d.Count)/interval.Seconds(), 'f', 1, 64)
		}
		fmt.Fprintf(w, "%-10s %8d %10s %10s %10s %10s %10s\n",
			elapsed, d.Count, rate,
			quant(d, 0.50), quant(d, 0.95), quant(d, 0.99), quant(d, 0.999))
	}
}

// scrapeVars fetches one daemon's GET /debug/vars (Registry.WriteJSON)
// into snapshots by name: the one read behind top and watch.
func scrapeVars(client *http.Client, addr string) (map[string]telemetry.MetricSnapshot, error) {
	resp, err := client.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/vars: %s", resp.Status)
	}
	return telemetry.ReadJSON(io.LimitReader(resp.Body, 8<<20))
}

// runWatchHistory prints the daemon's persisted windows for one metric
// before live streaming starts: GET /timeseries?since= serves the
// telemetry journal on a daemon running with -telemetry-journal, so the
// rows can predate this sdpctl — and even this daemon process.
func runWatchHistory(w io.Writer, addr, metric string, timeout, since time.Duration) error {
	u := fmt.Sprintf("http://%s/timeseries?metric=%s&since=%s",
		addr, url.QueryEscape(metric), url.QueryEscape(since.String()))
	resp, err := httpClient(timeout).Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET /timeseries: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var ts telemetry.Timeseries
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&ts); err != nil {
		return fmt.Errorf("malformed reply: %w", err)
	}
	pts := ts.Series[metric]
	fmt.Fprintf(w, "history: last %s of %s from %s (%d windows, source %s)\n",
		since, metric, addr, len(pts), ts.Source)
	if len(pts) == 0 {
		return nil
	}
	fmt.Fprintf(w, "%-10s %8s %10s %10s %10s %10s %10s\n",
		"ELAPSED", "COUNT", "RATE/S", "P50", "P95", "P99", "P999")
	nanos := func(n int64) string {
		if n == 0 {
			return "-"
		}
		return time.Duration(n).Round(time.Microsecond).String()
	}
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %8d %10.1f %10s %10s %10s %10s\n",
			time.Duration(p.ElapsedMs)*time.Millisecond,
			p.Count, p.RatePerS,
			nanos(p.P50Nanos), nanos(p.P95Nanos), nanos(p.P99Nanos), nanos(p.P999Nanos))
	}
	return nil
}

// runAlerts fetches a daemon's GET /alerts and renders the drift
// watchdog's view. It reports whether the daemon is quiet (no active
// alerts) so main can exit non-zero for soak scripts, mirroring
// `sdpctl health`; a daemon without a watchdog counts as quiet.
func runAlerts(w io.Writer, addr string, timeout time.Duration) (bool, error) {
	var view telemetry.AlertReport
	if err := getJSON(addr, "/alerts", "", timeout, &view); err != nil {
		return false, err
	}
	if !view.Watching {
		fmt.Fprintf(w, "%s: no drift watchdog (daemon runs without -watch-every)\n", addr)
		return true, nil
	}
	fmt.Fprintf(w, "%s: watchdog running, %d active, %d fired since boot\n",
		addr, len(view.Active), len(view.Fired))
	if len(view.Active) > 0 {
		fmt.Fprintf(w, "%-20s %-8s %-34s %12s %12s %s\n",
			"ACTIVE", "SEV", "METRIC", "VALUE", "THRESHOLD", "SINCE")
		for _, a := range view.Active {
			fmt.Fprintf(w, "%-20s %-8s %-34s %12.4g %12.4g %s\n",
				a.Code, a.Severity, a.Metric, a.Value, a.Threshold, a.At.Format(time.RFC3339))
			if a.Evidence != "" {
				fmt.Fprintf(w, "  %s\n", a.Evidence)
			}
		}
	}
	for i, a := range view.Fired {
		if i == 0 {
			fmt.Fprintln(w, "fired (newest first):")
		}
		fmt.Fprintf(w, "  %s %-20s %-8s %s\n",
			a.At.Format(time.RFC3339), a.Code, a.Severity, a.Evidence)
	}
	return len(view.Active) == 0, nil
}
