package main

// Soak alert gate: -check-alerts polls daemons' GET /alerts around the
// run, so a soak fails loudly when a drift watchdog fired — not only
// when latency regressed. The gate snapshots each daemon's fired count
// before the run and flags growth, so alerts from before the run don't
// fail it.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sariadne/internal/telemetry"
)

func fetchAlerts(addr string, timeout time.Duration) (telemetry.AlertReport, error) {
	var v telemetry.AlertReport
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get("http://" + addr + "/alerts")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return v, err
	}
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET /alerts: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("malformed /alerts reply: %w", err)
	}
	return v, nil
}

// snapshotAlerts records each gate daemon's fired-alert count before the
// run starts.
func snapshotAlerts(addrs []string, timeout time.Duration) (map[string]int, error) {
	base := make(map[string]int, len(addrs))
	for _, addr := range addrs {
		v, err := fetchAlerts(addr, timeout)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", addr, err)
		}
		if !v.Watching {
			return nil, fmt.Errorf("%s: no drift watchdog (start the daemon with -watch-every)", addr)
		}
		base[addr] = len(v.Fired)
	}
	return base, nil
}

// checkAlertGate re-polls the gate daemons after the run and returns one
// violation line per alert that fired during it (newest first in the
// recorder, so the first len-baseline entries are the new ones) plus any
// alert still active now.
func checkAlertGate(addrs []string, baseline map[string]int, timeout time.Duration) ([]string, error) {
	var bad []string
	for _, addr := range addrs {
		v, err := fetchAlerts(addr, timeout)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", addr, err)
		}
		if newFired := len(v.Fired) - baseline[addr]; newFired > 0 {
			for _, a := range v.Fired[:newFired] {
				bad = append(bad, fmt.Sprintf("%s: fired %s (%s): %s", addr, a.Code, a.Severity, a.Evidence))
			}
		}
		for _, a := range v.Active {
			bad = append(bad, fmt.Sprintf("%s: active %s (%s): %s", addr, a.Code, a.Severity, a.Evidence))
		}
	}
	return bad, nil
}
