package main

import (
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sariadne/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// requestTicks scripts one sample per offset (each relative to end), every
// one carrying a cumulative sdpd_request_seconds histogram that gained ten
// 1 ms observations since the tick before, plus a size histogram and a
// counter GET /timeseries must leave out.
func requestTicks(end time.Time, offsets ...time.Duration) []telemetry.Sample {
	var out []telemetry.Sample
	for i, off := range offsets {
		n := uint64(10 * (i + 1))
		out = append(out, telemetry.Sample{Time: end.Add(off), Metrics: []telemetry.MetricSnapshot{
			{Name: "sdpd_requests_total", Kind: telemetry.KindCounter, Value: float64(n)},
			{Name: "sdpd_request_seconds", Kind: telemetry.KindHistogram, Count: n, Sum: float64(n) / 1000,
				Buckets: []telemetry.BucketCount{{UpperBound: 0.001, Count: n - 1}, {UpperBound: 0.25, Count: n}}},
			{Name: "sdpd_reply_bytes", Kind: telemetry.KindHistogram, Count: n, Sum: float64(n) * 100,
				Buckets: []telemetry.BucketCount{{UpperBound: 128, Count: n}}},
		}})
	}
	return out
}

// scriptedHistory is an in-memory history holding samples, for a daemon to
// serve in place of the ring its sampler would fill.
func scriptedHistory(samples []telemetry.Sample) *telemetry.History {
	h := telemetry.NewHistory(memoryHistorySamples)
	for _, s := range samples {
		h.Add(s)
	}
	return h
}

// historyServers returns two gateways over the same scripted samples: a
// plain daemon with the samples in its in-memory history, and a
// journal-backed one whose history was refilled from disk at start-up.
func historyServers(t *testing.T, samples []telemetry.Sample) map[string]string {
	t.Helper()
	cfg := testConfig(t)
	cfg.history = scriptedHistory(samples)
	plainTS, _ := serveGateway(t, cfg)

	dir := t.TempDir()
	j, err := telemetry.OpenJournal(dir, telemetry.JournalOptions{}, telemetry.NewHistory(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := j.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cfg = testConfig(t)
	cfg.telemetryJournal = dir
	durableTS, _ := serveGateway(t, cfg)
	return map[string]string{"ring": plainTS.URL, "journal": durableTS.URL}
}

// TestTimeseriesSinceMeansOneThing: ?since= cuts back from now whether the
// history was refilled from a journal or only ever lived in memory, so the
// same samples give the same windows in both modes — including behind a
// stalled sampler, where "the last 10 s" is empty, not "the 10 s before
// the sampler stopped".
func TestTimeseriesSinceMeansOneThing(t *testing.T) {
	// Journal stamps are whole milliseconds; script on that grid so both
	// modes hold identical times. The newest sample is 30 s old.
	now := time.UnixMilli(time.Now().UnixMilli())
	samples := requestTicks(now, -120*time.Second, -90*time.Second, -60*time.Second, -45*time.Second, -30*time.Second)
	urls := historyServers(t, samples)

	for _, tc := range []struct {
		since            string
		samples, windows int
		status           int
	}{
		{since: "", samples: 5, windows: 4, status: http.StatusOK},
		{since: "1h", samples: 5, windows: 4, status: http.StatusOK},
		{since: "50s", samples: 2, windows: 1, status: http.StatusOK},
		{since: "40s", samples: 1, windows: 0, status: http.StatusOK},
		{since: "10s", samples: 0, windows: 0, status: http.StatusOK}, // stalled sampler
		{since: "0", status: http.StatusBadRequest},
		{since: "-5s", status: http.StatusBadRequest},
		{since: "yesterday", status: http.StatusBadRequest},
	} {
		bodies := make(map[string]string)
		for source, base := range urls {
			u := base + "/timeseries?metric=sdpd_request_seconds"
			if tc.since != "" {
				u += "&since=" + tc.since
			}
			resp, body := do(t, "GET", u, "")
			if resp.StatusCode != tc.status {
				t.Fatalf("since=%q on the %s daemon: status %d, want %d: %s", tc.since, source, resp.StatusCode, tc.status, body)
			}
			if tc.status != http.StatusOK {
				continue
			}
			var reply telemetry.Timeseries
			if err := json.Unmarshal([]byte(body), &reply); err != nil {
				t.Fatalf("malformed /timeseries body: %v\n%s", err, body)
			}
			if reply.Source != source || reply.Samples != tc.samples || len(reply.Series["sdpd_request_seconds"]) != tc.windows {
				t.Fatalf("since=%q on the %s daemon: source %q, %d samples, %d windows; want %d samples, %d windows\n%s",
					tc.since, source, reply.Source, reply.Samples, len(reply.Series["sdpd_request_seconds"]), tc.samples, tc.windows, body)
			}
			bodies[source] = strings.Replace(body, `"source":"`+source+`"`, `"source":"-"`, 1)
		}
		if bodies["ring"] != bodies["journal"] {
			t.Fatalf("since=%q: the two modes serve different curves\n ring:    %s journal: %s", tc.since, bodies["ring"], bodies["journal"])
		}
	}
}

// TestTimeseriesGolden pins the bytes of a GET /timeseries reply — field
// names, their order, units, which metrics become series — so the daemon,
// sdpctl (which renders this same file in its own tests) and the soak
// smoke cannot drift apart. Rewrite with `go test ./cmd/sdpd -run
// TestTimeseriesGolden -update`.
func TestTimeseriesGolden(t *testing.T) {
	samples := requestTicks(time.UnixMilli(1700000000000), 0, 5*time.Second, 10*time.Second+500*time.Millisecond)
	// An idle window: the cumulative histogram did not move.
	idle := samples[2]
	idle.Time = idle.Time.Add(5 * time.Second)
	cfg := testConfig(t)
	cfg.history = scriptedHistory(append(samples, idle))
	ts, _ := serveGateway(t, cfg)

	resp, body := do(t, "GET", ts.URL+"/timeseries", "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET /timeseries = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	golden := filepath.Join("testdata", "timeseries.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if body != string(want) {
		t.Fatalf("GET /timeseries drifted from %s:\n got %s want %s", golden, body, want)
	}
}

// TestTimeseriesConcurrentReaders runs the whole pipeline at once under
// the race detector: the sampler writing the history, a watchdog sweeping
// it and several GET /timeseries readers.
func TestTimeseriesConcurrentReaders(t *testing.T) {
	cfg := testConfig(t)
	cfg.history = telemetry.NewHistory(8) // wraps within the test
	cfg.sampleEvery, cfg.watchEvery = time.Millisecond, time.Millisecond
	ts, _ := serveGateway(t, cfg)

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, path := range []string{"/timeseries", "/timeseries?since=1s&metric=sdpd_request_seconds", "/alerts"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s = %d", path, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
