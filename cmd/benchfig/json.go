package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// benchPoint is one measured point of a figure's series in the
// machine-readable BENCH_*.json output: per-op throughput plus latency
// percentiles over the individual repetitions at that directory size.
type benchPoint struct {
	Services  int     `json:"services"`
	Series    string  `json:"series"`
	Reps      int     `json:"reps"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Nanos  int64   `json:"p50_ns"`
	P95Nanos  int64   `json:"p95_ns"`
	P99Nanos  int64   `json:"p99_ns"`
	P999Nanos int64   `json:"p999_ns"`
	// MatchOpsPerOp is the capability-level match operations one operation
	// needed, where the figure counts them (figure 8's inserts, figure 9's
	// queries in both directories).
	MatchOpsPerOp float64 `json:"match_ops_per_op,omitempty"`
}

// fig8Points, fig9Points and fig10Points accumulate the series as the
// figures run; main writes them out when -benchjson is set.
var (
	fig8Points  []benchPoint
	fig9Points  []benchPoint
	fig10Points []benchPoint
)

// sampleIt runs f reps times and returns each repetition's duration, so
// callers can derive both the average the text tables print and the
// percentiles the JSON emission records.
func sampleIt(reps int, f func()) []time.Duration {
	samples := make([]time.Duration, reps)
	for i := range samples {
		start := time.Now()
		f()
		samples[i] = time.Since(start)
	}
	return samples
}

// mean returns the average of samples.
func mean(samples []time.Duration) time.Duration {
	var total time.Duration
	for _, s := range samples {
		total += s
	}
	return total / time.Duration(len(samples))
}

// percentile returns the q-quantile (0 < q <= 1) of sorted by nearest
// rank.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// point summarizes one series at one directory size.
func point(services int, series string, samples []time.Duration) benchPoint {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	avg := mean(samples)
	ops := 0.0
	if avg > 0 {
		ops = float64(time.Second) / float64(avg)
	}
	return benchPoint{
		Services:  services,
		Series:    series,
		Reps:      len(samples),
		OpsPerSec: ops,
		P50Nanos:  int64(percentile(sorted, 0.50)),
		P95Nanos:  int64(percentile(sorted, 0.95)),
		P99Nanos:  int64(percentile(sorted, 0.99)),
		P999Nanos: int64(percentile(sorted, 0.999)),
	}
}

// writeBenchJSON writes one figure's series to path.
func writeBenchJSON(path string, points []benchPoint) error {
	if points == nil {
		points = []benchPoint{}
	}
	data, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d points)\n", path, len(points))
	return nil
}
