package slo

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sariadne/internal/telemetry"
)

func sampleReport() *Report {
	return &Report{
		Schema:   Schema,
		Scenario: "flash-crowd",
		Seed:     42,
		Config:   Config{Nodes: 9, Topology: "grid", Services: 60, Mode: "closed", Concurrency: 4, Ops: 400},
		Schedule: Schedule{QueryOps: 400, HotService: "svc0007", HotQueryOps: 320, TopShareMilli: 800},
		Results:  Results{OK: 400, Hits: 812},
		Points: []Point{
			{Services: 60, Series: "query", Reps: 400, OpsPerSec: 5000, P50Nanos: 100_000, P95Nanos: 400_000, P99Nanos: 900_000, P999Nanos: 2_000_000},
		},
		Curve: []CurvePoint{{Series: "query", CurvePoint: telemetry.CurvePoint{
			ElapsedMs: 1000, WindowMs: 250, Count: 100, RatePerS: 400, P99Nanos: 900_000}}},
		Wall: Wall{StartedAt: time.Now(), DurationMs: 1234},
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base, run := sampleReport(), sampleReport()
	run.Points[0].P99Nanos = 3_000_000 // 3.3x < default 4x band
	run.Points[0].OpsPerSec = 2000     // 0.4x > default 0.25 floor
	if v := Compare(base, run, Tolerance{}); len(v) != 0 {
		t.Fatalf("within-band run flagged: %v", v)
	}
}

func TestCompareP99RegressionFails(t *testing.T) {
	base, run := sampleReport(), sampleReport()
	run.Points[0].P99Nanos = 10_000_000 // 11x the baseline
	vs := Compare(base, run, Tolerance{})
	if len(vs) != 1 || vs[0].Field != "p99_ns" {
		t.Fatalf("violations = %v, want exactly the p99 band", vs)
	}
	if !strings.Contains(vs[0].String(), "p99_ns") {
		t.Fatalf("violation string unusable: %q", vs[0].String())
	}
}

func TestCompareTightBand(t *testing.T) {
	base, run := sampleReport(), sampleReport()
	run.Points[0].P999Nanos = 4_100_000 // 2.05x
	if v := Compare(base, run, Tolerance{MaxQuantileRatio: 2}); len(v) != 1 || v[0].Field != "p999_ns" {
		t.Fatalf("violations = %v, want p999 with a 2x band", v)
	}
}

func TestCompareThroughputCollapseFails(t *testing.T) {
	base, run := sampleReport(), sampleReport()
	run.Points[0].OpsPerSec = 100 // 2% of baseline
	vs := Compare(base, run, Tolerance{})
	if len(vs) != 1 || vs[0].Field != "ops_per_sec" {
		t.Fatalf("violations = %v, want the throughput floor", vs)
	}
}

func TestCompareMissingSeriesFails(t *testing.T) {
	base, run := sampleReport(), sampleReport()
	run.Points = nil
	vs := Compare(base, run, Tolerance{})
	if len(vs) != 1 || vs[0].Field != "missing_point" {
		t.Fatalf("violations = %v, want missing_point", vs)
	}
}

func TestCompareStrictSchedule(t *testing.T) {
	base, run := sampleReport(), sampleReport()
	run.Schedule.HotQueryOps = 999
	vs := Compare(base, run, Tolerance{StrictSchedule: true})
	if len(vs) != 1 || vs[0].Field != "schedule" {
		t.Fatalf("violations = %v, want schedule drift", vs)
	}
	run2 := sampleReport()
	if vs := Compare(base, run2, Tolerance{StrictSchedule: true}); len(vs) != 0 {
		t.Fatalf("identical schedules flagged: %v", vs)
	}
}

func TestCompareFailedOps(t *testing.T) {
	base, run := sampleReport(), sampleReport()
	run.Results.Failed = 3
	if vs := Compare(base, run, Tolerance{MaxFailedOps: 2}); len(vs) != 1 || vs[0].Field != "failed_ops" {
		t.Fatalf("violations = %v, want failed_ops", vs)
	}
	if vs := Compare(base, run, Tolerance{MaxFailedOps: 5}); len(vs) != 0 {
		t.Fatalf("failures under the cap flagged: %v", vs)
	}
	if vs := Compare(base, run, Tolerance{MaxFailedOps: -1}); len(vs) != 0 {
		t.Fatalf("disabled failure cap still flagged: %v", vs)
	}
}

func TestCanonicalBytesStripsWallClock(t *testing.T) {
	a, b := sampleReport(), sampleReport()
	b.Wall.StartedAt = b.Wall.StartedAt.Add(time.Hour)
	b.Wall.DurationMs = 9999
	b.Points[0].P99Nanos = 123
	b.Curve[0].Count = 7

	ca, err := a.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Fatalf("canonical bytes differ across wall-clock-only changes:\n%s\nvs\n%s", ca, cb)
	}
	if strings.Contains(string(ca), "p99_ns") {
		t.Fatalf("canonical form kept wall-clock points:\n%s", ca)
	}
	// Determinism-critical sections must survive the stripping.
	for _, want := range []string{"flash-crowd", "hot_service", "svc0007", `"ok": 400`} {
		if !strings.Contains(string(ca), want) {
			t.Fatalf("canonical form lost %q:\n%s", want, ca)
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_load_test.json")
	r := sampleReport()
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario != r.Scenario || len(got.Points) != 1 || got.Points[0].P999Nanos != 2_000_000 {
		t.Fatalf("round trip lost data: %+v", got)
	}

	// A wrong schema tag must be rejected, not silently compared.
	bad := sampleReport()
	bad.Schema = "sdp-load/v0"
	badPath := filepath.Join(dir, "bad.json")
	if err := bad.WriteFile(badPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(badPath); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

// TestCurvePointWireLayout: a report's curve point is the series name
// plus telemetry's one curve-point form, flattened, in the field order the
// checked-in baselines were written with — and a checked-in baseline still
// decodes into it.
func TestCurvePointWireLayout(t *testing.T) {
	got, err := json.Marshal(sampleReport().Curve[0])
	if err != nil {
		t.Fatal(err)
	}
	want := `{"series":"query","elapsed_ms":1000,"window_ms":250,"count":100,"rate_per_sec":400,` +
		`"p50_ns":0,"p95_ns":0,"p99_ns":900000,"p999_ns":0}`
	if string(got) != want {
		t.Fatalf("curve point encodes as\n%s\nwant\n%s", got, want)
	}
	base, err := LoadReport(filepath.Join("..", "..", "bench", "baselines", "BENCH_load_flash-crowd.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Curve) == 0 {
		t.Fatal("baseline has no curve")
	}
	if p := base.Curve[0]; p.Series != "query" || p.WindowMs <= 0 || p.Count == 0 || p.P99Nanos < p.P50Nanos || p.P50Nanos <= 0 {
		t.Fatalf("baseline curve point decoded as %+v", p)
	}
}

func TestLoadTolerance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tolerances.json")
	if err := writeFile(path, `{"max_quantile_ratio": 6, "min_ops_ratio": 0.1, "max_failed_ops": 0, "strict_schedule": true}`); err != nil {
		t.Fatal(err)
	}
	tol, err := LoadTolerance(path)
	if err != nil {
		t.Fatal(err)
	}
	if tol.MaxQuantileRatio != 6 || tol.MinOpsRatio != 0.1 || !tol.StrictSchedule {
		t.Fatalf("tolerance = %+v", tol)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
