// Package slo defines the machine-readable schema of a load run
// (BENCH_load_<scenario>.json) and the comparator that diffs a run
// against a checked-in baseline under configurable tolerance bands —
// the referee every scaling PR is judged against.
//
// The schema splits cleanly into deterministic and wall-clock halves.
// Everything outside Points/Curve/Wall is a pure function of the scenario
// and seed: two runs of `sdpload -scenario flash-crowd -seed 42` produce
// byte-identical canonical encodings (CanonicalBytes), which CI asserts.
// Points keeps the field names BENCH_fig9/10.json introduced (services,
// series, reps, ops_per_sec, p50_ns...), so figure and load trajectories
// share tooling.
package slo

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"sariadne/internal/telemetry"
)

// Schema is the format tag emitted into every report.
const Schema = "sdp-load/v1"

// Report is one load run's complete result file.
type Report struct {
	Schema   string   `json:"schema"`
	Scenario string   `json:"scenario"`
	Seed     int64    `json:"seed"`
	Config   Config   `json:"config"`
	Schedule Schedule `json:"schedule"`
	Results  Results  `json:"results"`

	// Points and Curve are wall-clock measurements; Wall stamps the run.
	// CanonicalBytes strips all three.
	Points []Point      `json:"points"`
	Curve  []CurvePoint `json:"curve"`
	Wall   Wall         `json:"wall"`
}

// Config echoes the requested run parameters (inputs, not measurements).
type Config struct {
	Nodes       int     `json:"nodes"`
	Topology    string  `json:"topology"`
	Services    int     `json:"services"`
	Ontologies  int     `json:"ontologies"`
	Mode        string  `json:"mode"` // closed | open
	Concurrency int     `json:"concurrency"`
	RatePerSec  float64 `json:"rate_per_sec,omitempty"`
	Ops         int     `json:"ops"`
	WarmupOps   int     `json:"warmup_ops"`
	// DurationMs is the soak deadline of a timed run: the plan cycles
	// open-loop until it passes (0 = classic fixed-op run; omitted from
	// the JSON so pre-soak reports keep their canonical bytes).
	DurationMs int64   `json:"duration_ms,omitempty"`
	SampleMs   int64   `json:"sample_ms"`
	ZipfSkew   float64 `json:"zipf_skew,omitempty"`
	Target     string  `json:"target,omitempty"` // live cluster, empty = simnet
}

// Schedule summarizes the seeded op plan — fully derived from the RNG
// before execution starts, so it is deterministic across runs and the
// comparator checks it for strict equality (workload drift would make
// latency comparisons meaningless).
type Schedule struct {
	PublishOps int `json:"publish_ops"`
	QueryOps   int `json:"query_ops"`
	ChurnOps   int `json:"churn_ops"`
	// HotService is the capability a flash crowd converges on.
	HotService string `json:"hot_service,omitempty"`
	// HotQueryOps counts scheduled queries targeting HotService.
	HotQueryOps int `json:"hot_query_ops,omitempty"`
	// TopShareMilli is the popularity share of the most-queried service
	// in thousandths (zipfian skew made visible without floats).
	TopShareMilli int `json:"top_share_milli"`
	// Faults names the armed fault-plan phases, in order.
	Faults []string `json:"faults,omitempty"`
}

// Results counts op outcomes. Deterministic for fault-free scenarios;
// fault scenarios may vary Failed/Partial run to run.
type Results struct {
	OK      int `json:"ok"`
	Empty   int `json:"empty"`
	Failed  int `json:"failed"`
	Partial int `json:"partial"`
	Hits    int `json:"hits"`
}

// Point is one series' end-of-run aggregate, in the BENCH_fig9/10.json
// field layout plus the p999 tail.
type Point struct {
	Services  int     `json:"services"`
	Series    string  `json:"series"`
	Reps      int     `json:"reps"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Nanos  int64   `json:"p50_ns"`
	P95Nanos  int64   `json:"p95_ns"`
	P99Nanos  int64   `json:"p99_ns"`
	P999Nanos int64   `json:"p999_ns"`
}

// CurvePoint is one warmup-trimmed observation window of a series: the
// latency distribution over time, not just at the end. The window is
// telemetry's one curve-point form, so load-run curves and a live
// daemon's GET /timeseries read identically.
type CurvePoint struct {
	Series string `json:"series"`
	telemetry.CurvePoint
}

// Wall stamps the run with wall-clock context.
type Wall struct {
	StartedAt  time.Time `json:"started_at"`
	DurationMs int64     `json:"duration_ms"`
}

// Marshal renders the report as indented JSON with a trailing newline.
func (r *Report) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// CanonicalBytes renders the report with every wall-clock field zeroed:
// the part of the file that must be byte-identical across same-seed runs.
func (r *Report) CanonicalBytes() ([]byte, error) {
	c := *r
	c.Points = nil
	c.Curve = nil
	c.Wall = Wall{}
	return c.Marshal()
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	data, err := r.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadReport reads and validates a report file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("slo: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("slo: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}
