package telemetry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sampleAt builds a synthetic sample with one counter reading.
func sampleAt(t time.Time, counter string, v float64) Sample {
	return Sample{Time: t, Metrics: []MetricSnapshot{
		{Name: counter, Kind: KindCounter, Value: v},
	}}
}

// openJournal opens dir the way a daemon does: recovering into a fresh
// history of the journal-backed capacity.
func openJournal(t *testing.T, dir string, opts JournalOptions) (*Journal, *History) {
	t.Helper()
	h := NewHistory(4096)
	j, err := OpenJournal(dir, opts, h)
	if err != nil {
		t.Fatal(err)
	}
	return j, h
}

func TestJournalRoundTrip(t *testing.T) {
	in := Sample{
		Time: time.UnixMilli(1700000000123),
		Metrics: []MetricSnapshot{
			{Name: "a_total", Kind: KindCounter, Value: 42},
			{Name: "b_gauge", Kind: KindGauge, Value: -7},
			{Name: "fam_total", Kind: KindCounter, Label: "code", LabelValue: "x", Value: 3},
			{Name: "h_seconds", Kind: KindHistogram, Count: 5, Sum: 1.25,
				Buckets: []BucketCount{{UpperBound: 0.5, Count: 3}, {UpperBound: 2, Count: 5}}},
		},
	}
	payload, err := EncodeJournalSample(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeJournalSample(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Time.Equal(in.Time) {
		t.Fatalf("Time = %v, want %v", out.Time, in.Time)
	}
	if len(out.Metrics) != len(in.Metrics) {
		t.Fatalf("Metrics len = %d, want %d", len(out.Metrics), len(in.Metrics))
	}
	for i := range in.Metrics {
		a, b := in.Metrics[i], out.Metrics[i]
		a.Help = "" // Help is deliberately not persisted
		if a.Name != b.Name || a.Kind != b.Kind || a.Label != b.Label ||
			a.LabelValue != b.LabelValue || a.Value != b.Value ||
			a.Count != b.Count || a.Sum != b.Sum || len(a.Buckets) != len(b.Buckets) {
			t.Fatalf("metric %d: got %+v, want %+v", i, b, a)
		}
	}
}

func TestJournalRejectsNewerVersion(t *testing.T) {
	_, err := DecodeJournalSample([]byte(`{"v":99,"t":0}`))
	var ve *JournalVersionError
	if err == nil {
		t.Fatal("decoding a v99 record succeeded")
	}
	if !errors.As(err, &ve) || ve.Version != 99 {
		t.Fatalf("err = %v, want JournalVersionError{99}", err)
	}
}

func TestJournalPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	j, first := openJournal(t, dir, JournalOptions{})
	base := time.Now().Add(-time.Minute)
	for i := 0; i < 10; i++ {
		if err := j.Append(sampleAt(base.Add(time.Duration(i)*time.Second), "x_total", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The journal is a sink: the sampler, not Append, feeds the history.
	if first.Len() != 0 {
		t.Fatalf("Append put %d samples into the open-time history", first.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, h2 := openJournal(t, dir, JournalOptions{})
	hist := h2.Samples()
	if len(hist) != 10 {
		t.Fatalf("history after reopen = %d samples, want 10", len(hist))
	}
	if m, ok := hist[9].Metric("x_total"); !ok || m.Value != 9 {
		t.Fatalf("last sample = %+v, want x_total=9", hist[9])
	}
	if j2.TornTail() {
		t.Fatal("clean reopen reported a torn tail")
	}
	// New appends continue the same history.
	if err := j2.Append(sampleAt(base.Add(time.Minute), "x_total", 10)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, h3 := openJournal(t, dir, JournalOptions{})
	defer func() { _ = j3.Close() }()
	if got := h3.Len(); got != 11 {
		t.Fatalf("history after a continued append = %d samples, want 11", got)
	}
}

// twoSegmentJournal writes three samples into each of two segments and
// returns the closed journal's directory, segment paths and options.
// (Frame-level damage — every truncation point, every bit flip — is
// internal/framelog's crash table; the tests here cover what the journal
// adds: which segment gets repaired, and what a tear costs in history.)
func twoSegmentJournal(t *testing.T) (dir string, segs [2]string, opts JournalOptions, base time.Time) {
	t.Helper()
	dir = t.TempDir()
	base = time.Now().Add(-time.Minute)
	one, err := EncodeJournalSample(sampleAt(base, "x_total", 0))
	if err != nil {
		t.Fatal(err)
	}
	// Rotate once the segment holds three frames.
	opts = JournalOptions{MaxSegmentBytes: int64(len(journalMagic) + 3*(8+len(one)))}
	j, _ := openJournal(t, dir, opts)
	for i := 0; i < 6; i++ {
		if err := j.Append(sampleAt(base.Add(time.Duration(i)*time.Second), "x_total", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs = [2]string{filepath.Join(dir, "000000000001.tjseg"), filepath.Join(dir, "000000000002.tjseg")}
	for _, seg := range segs {
		if _, err := os.Stat(seg); err != nil {
			t.Fatalf("expected two segments: %v", err)
		}
	}
	return dir, segs, opts, base
}

// TestJournalTruncatesTornTail: a crash leaves half a frame at the end of
// both segments. Both tears are counted; only the active segment — the
// one appends go to — is cut back, and it takes appends on the clean
// edge. The older segment's bytes stay as they are.
func TestJournalTruncatesTornTail(t *testing.T) {
	dir, segs, opts, base := twoSegmentJournal(t)
	var sizes [2]int64
	for i, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = fi.Size()
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		// A frame header promising 500 payload bytes, then three of them.
		if _, err := f.Write([]byte{0xf4, 0x01, 0, 0, 1, 2, 3, 4, 'x', 'y', 'z'}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	tornBefore := journalTornTailsTotal.Value()
	j2, h2 := openJournal(t, dir, opts)
	if !j2.TornTail() {
		t.Fatal("reopen over half-written frames did not report a torn tail")
	}
	if got := journalTornTailsTotal.Value() - tornBefore; got != 2 {
		t.Fatalf("torn tails counted = %d, want one per damaged segment", got)
	}
	if got := h2.Len(); got != 6 {
		t.Fatalf("history after torn-tail recovery = %d samples, want 6", got)
	}
	if fi, err := os.Stat(segs[0]); err != nil || fi.Size() != sizes[0]+11 {
		t.Fatalf("non-active segment was modified: size %d, want %d", fi.Size(), sizes[0]+11)
	}
	if fi, err := os.Stat(segs[1]); err != nil || fi.Size() != sizes[1] {
		t.Fatalf("active segment after truncation = %d bytes, want %d", fi.Size(), sizes[1])
	}
	// The journal must accept appends on the cleaned edge and read them
	// back after another reopen.
	if err := j2.Append(sampleAt(base.Add(time.Minute), "x_total", 6)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, h3 := openJournal(t, dir, opts)
	defer func() { _ = j3.Close() }()
	if got := h3.Len(); got != 7 {
		t.Fatalf("history after post-recovery append = %d samples, want 7", got)
	}
}

// TestJournalCorruptPayloadStopsSegment: bit rot in the middle of an
// older segment costs that segment's remaining frames and nothing else —
// the segments after it still load, and the damaged file is left alone.
func TestJournalCorruptPayloadStopsSegment(t *testing.T) {
	dir, segs, opts, _ := twoSegmentJournal(t)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	frame := (len(data) - len(journalMagic)) / 3
	data[len(journalMagic)+frame+8+2] ^= 0xFF // inside the second frame's payload
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, h2 := openJournal(t, dir, opts)
	defer func() { _ = j2.Close() }()
	if !j2.TornTail() {
		t.Fatal("bit flip in an older segment went undetected")
	}
	hist := h2.Samples()
	var values []float64
	for _, s := range hist {
		m, _ := s.Metric("x_total")
		values = append(values, m.Value)
	}
	if want := []float64{0, 3, 4, 5}; !reflect.DeepEqual(values, want) {
		t.Fatalf("History after mid-segment corruption = %v, want %v", values, want)
	}
	if after, err := os.ReadFile(segs[0]); err != nil || !bytes.Equal(after, data) {
		t.Fatal("the damaged non-active segment was rewritten")
	}
	// Replay reads disk the same way.
	n := 0
	if err := j2.Replay(func(Sample) error { n++; return nil }); err != nil || n != 4 {
		t.Fatalf("Replay = %d samples (err %v), want 4", n, err)
	}
}

// TestJournalForeignSegmentRefused: a .tjseg file that does not carry the
// journal magic is a hard error and is never truncated.
func TestJournalForeignSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "000000000001.tjseg")
	content := []byte("not a telemetry journal segment")
	if err := os.WriteFile(seg, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir, JournalOptions{}, NewHistory(4)); err == nil || !strings.Contains(err.Error(), "bad segment magic") {
		t.Fatalf("OpenJournal over a foreign segment = %v", err)
	}
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, content) {
		t.Fatal("foreign segment was modified")
	}
}

// TestJournalOpensParentSegment opens a segment written by the commit
// before the journal moved onto internal/framelog: the on-disk format is
// unchanged, so its full history loads and new appends extend it.
func TestJournalOpensParentSegment(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_000000000001.tjseg"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seg := filepath.Join(dir, "000000000001.tjseg")
	if err := os.WriteFile(seg, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	j, h := openJournal(t, dir, JournalOptions{})
	defer func() { _ = j.Close() }()
	hist := h.Samples()
	if j.TornTail() || len(hist) != 3 {
		t.Fatalf("fixture history = %d samples (torn %v), want 3", len(hist), j.TornTail())
	}
	for i, s := range hist {
		x, _ := s.Metric("x_total")
		h, ok := s.Metric("h_seconds")
		if want := time.UnixMilli(1700000000000 + int64(i)*5000); !s.Time.Equal(want) || x.Value != float64(i) ||
			!ok || h.Count != uint64(i+1) || len(h.Buckets) != 2 {
			t.Fatalf("fixture sample %d = %+v", i, s)
		}
	}
	if err := j.Append(sampleAt(time.Now(), "x_total", 3)); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(seg)
	if err != nil || !bytes.HasPrefix(after, fixture) || len(after) == len(fixture) {
		t.Fatalf("append did not extend the parent's bytes in place (err %v)", err)
	}
}

func TestJournalRotatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation roughly every append.
	j, _ := openJournal(t, dir, JournalOptions{MaxSegmentBytes: 64, MaxSegments: 3})
	defer func() { _ = j.Close() }()
	base := time.Now().Add(-time.Minute)
	for i := 0; i < 12; i++ {
		if err := j.Append(sampleAt(base.Add(time.Duration(i)*time.Second), "x_total", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) > 3 {
		t.Fatalf("segment files = %d, want <= 3 after pruning", len(ents))
	}
	// The size gauge is kept as a running total; it must agree with the
	// directory after rotations and prunes.
	var onDisk int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if got := journalSizeBytes.Value(); got != onDisk {
		t.Fatalf("telemetry_journal_size_bytes = %d, segment files sum to %d", got, onDisk)
	}
	if got := journalSegments.Value(); got != int64(len(ents)) {
		t.Fatalf("telemetry_journal_segments = %d, %d files on disk", got, len(ents))
	}
	// Replay only sees what disk retained, newest segments, oldest first.
	var replayed []Sample
	if err := j.Replay(func(s Sample) error { replayed = append(replayed, s); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(replayed) == 0 || len(replayed) >= 12 {
		t.Fatalf("Replay = %d samples, want pruned-but-nonzero subset", len(replayed))
	}
	for i := 1; i < len(replayed); i++ {
		if replayed[i].Time.Before(replayed[i-1].Time) {
			t.Fatal("Replay out of order")
		}
	}
}

// TestJournalRecentWindow: a history refilled from disk answers window
// reads like one the sampler filled — Recent cuts on the samples' own
// wall-clock stamps, which is what lets a window reach back past a
// restart.
func TestJournalRecentWindow(t *testing.T) {
	dir := t.TempDir()
	j, _ := openJournal(t, dir, JournalOptions{})
	now := time.Now()
	for _, off := range []time.Duration{-10 * time.Minute, -5 * time.Minute, -30 * time.Second, -time.Second} {
		if err := j.Append(sampleAt(now.Add(off), "x_total", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, h := openJournal(t, dir, JournalOptions{})
	defer func() { _ = j2.Close() }()
	if got := len(h.Recent(time.Minute)); got != 2 {
		t.Fatalf("Recent(1m) = %d samples, want 2", got)
	}
	if got := len(h.Recent(time.Hour)); got != 4 {
		t.Fatalf("Recent(1h) = %d samples, want 4", got)
	}
}

// TestJournalPreloadKeepsNewest: a journal holding more samples than the
// history's capacity refills it with the newest, oldest first, across
// segment boundaries; and a window that spans the restart inside that
// history has its counter reset clamped by DeltaSnapshot, not negative.
func TestJournalPreloadKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	opts := JournalOptions{MaxSegmentBytes: 512} // a few samples per segment
	j, _ := openJournal(t, dir, opts)
	base := time.Now().Add(-time.Minute)
	tick := func(i int, count uint64) Sample {
		return Sample{Time: base.Add(time.Duration(i) * time.Second), Metrics: []MetricSnapshot{
			{Name: "x_total", Kind: KindCounter, Value: float64(i)},
			{Name: "h_seconds", Kind: KindHistogram, Count: count, Sum: float64(count),
				Buckets: []BucketCount{{UpperBound: 1, Count: count}}},
		}}
	}
	// The first process observed 100 per tick; the one after the restart
	// starts its cumulative histogram again from zero.
	for i := 0; i < 10; i++ {
		count := uint64(100 * (i + 1))
		if i >= 8 {
			count = uint64(7 * (i - 7))
		}
		if err := j.Append(tick(i, count)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) < 2 {
		t.Fatalf("want the samples spread over several segments, got %d (err %v)", len(ents), err)
	}

	h := NewHistory(4)
	j2, err := OpenJournal(dir, opts, h)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j2.Close() }()
	var values []float64
	for _, s := range h.Samples() {
		m, _ := s.Metric("x_total")
		values = append(values, m.Value)
	}
	if want := []float64{6, 7, 8, 9}; !reflect.DeepEqual(values, want) {
		t.Fatalf("preloaded history = %v, want the newest %v oldest first", values, want)
	}
	curve := QuantileCurve(h.Samples(), "h_seconds", 0)
	var counts []uint64
	for _, p := range curve {
		counts = append(counts, p.Count)
	}
	// 700->800, then 800->7 across the restart (clamped to the 7 observed
	// since), then 7->14.
	if want := []uint64{100, 7, 7}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("curve counts across the restart = %v, want %v", counts, want)
	}
	if p := curve[1]; p.RatePerS != 7 || p.P99Nanos != 1e9 {
		t.Fatalf("restart-spanning window = %+v, want 7/s with p99 at the 1 s bucket", p)
	}
}

func TestJournalAppendAfterClose(t *testing.T) {
	j, _ := openJournal(t, t.TempDir(), JournalOptions{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(sampleAt(time.Now(), "x_total", 1)); err != ErrJournalClosed {
		t.Fatalf("Append after Close = %v, want ErrJournalClosed", err)
	}
}
