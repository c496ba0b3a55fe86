package telemetry

// Telemetry journal: a size-bounded on-disk segment log of sampler ticks,
// so the History behind GET /timeseries and the watchdog survives
// restarts instead of dying with the process. The journal is a sink and
// an open-time source, nothing more: Append makes a sample durable, and
// OpenJournal hands every sample it recovers to the History it is given
// (which keeps the newest up to its capacity) in the one scan that also
// validates the segments. It holds no samples itself, so steady-state
// reads never touch it; Replay streams the full on-disk history for tools
// that want everything.
//
// Each segment file is one internal/framelog log — the same CRC-framed
// format, torn-tail recovery and append path the service store runs on —
// opened by a magic+version header; records carry their own version
// field so future readers can skip shapes they do not understand. What
// this file adds is the ring at file granularity: when the active
// segment passes the size bound a new one starts, and the oldest segment
// is deleted once the directory exceeds its segment budget. Losing the
// oldest telemetry is the design, not a failure: the journal bounds disk
// like the History bounds memory.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sariadne/internal/framelog"
)

// JournalVersion is the record version this code writes. Readers accept
// any version up to it and fail typed on newer ones.
const JournalVersion = 1

// journalMagic opens every segment file: format name plus format
// revision, so a foreign or corrupted file is rejected before any frame
// is parsed.
var journalMagic = []byte{'s', 'd', 'p', 't', 'j', 'n', 'l', 1}

// journalSuffix names segment files: <seq>.tjseg with a fixed-width
// decimal sequence so lexical order is creation order.
const journalSuffix = ".tjseg"

// JournalVersionError reports a record written by a newer format
// revision than this reader understands.
type JournalVersionError struct {
	Version int
}

func (e *JournalVersionError) Error() string {
	return fmt.Sprintf("telemetry journal: record version %d is newer than supported %d",
		e.Version, JournalVersion)
}

// journalWire is the persisted record shape: compact keys, no Help text,
// buckets as (upper bound, cumulative count) pairs. Versioned so the
// shape can evolve without invalidating old segments.
type journalWire struct {
	V int             `json:"v"`
	T int64           `json:"t"` // sample time, Unix milliseconds
	M []journalMetric `json:"m"`
}

type journalMetric struct {
	N  string          `json:"n"`
	K  Kind            `json:"k"`
	L  string          `json:"l,omitempty"`
	LV string          `json:"lv,omitempty"`
	F  float64         `json:"f,omitempty"`
	C  uint64          `json:"c,omitempty"`
	S  float64         `json:"s,omitempty"`
	B  []journalBucket `json:"b,omitempty"`
}

type journalBucket struct {
	U float64 `json:"u"`
	C uint64  `json:"c"`
}

// EncodeJournalSample serializes one sample to its framed payload bytes
// (version field included, frame header excluded).
func EncodeJournalSample(s Sample) ([]byte, error) {
	w := journalWire{V: JournalVersion, T: s.Time.UnixMilli(), M: make([]journalMetric, 0, len(s.Metrics))}
	for _, m := range s.Metrics {
		jm := journalMetric{N: m.Name, K: m.Kind, L: m.Label, LV: m.LabelValue,
			F: m.Value, C: m.Count, S: m.Sum}
		for _, b := range m.Buckets {
			jm.B = append(jm.B, journalBucket{U: b.UpperBound, C: b.Count})
		}
		w.M = append(w.M, jm)
	}
	return json.Marshal(w)
}

// DecodeJournalSample parses payload bytes produced by
// EncodeJournalSample, failing typed on newer-versioned records.
func DecodeJournalSample(payload []byte) (Sample, error) {
	var w journalWire
	if err := json.Unmarshal(payload, &w); err != nil {
		return Sample{}, err
	}
	if w.V > JournalVersion {
		return Sample{}, &JournalVersionError{Version: w.V}
	}
	s := Sample{Time: time.UnixMilli(w.T), Metrics: make([]MetricSnapshot, 0, len(w.M))}
	for _, jm := range w.M {
		m := MetricSnapshot{Name: jm.N, Kind: jm.K, Label: jm.L, LabelValue: jm.LV,
			Value: jm.F, Count: jm.C, Sum: jm.S}
		for _, b := range jm.B {
			m.Buckets = append(m.Buckets, BucketCount{UpperBound: b.U, Count: b.C})
		}
		s.Metrics = append(s.Metrics, m)
	}
	return s, nil
}

// JournalOptions bounds a journal. Zero values take defaults.
type JournalOptions struct {
	// MaxSegmentBytes rotates the active segment once it reaches this
	// size (default 4 MiB).
	MaxSegmentBytes int64
	// MaxSegments caps the directory; the oldest segment is deleted when
	// a rotation would exceed it (default 8).
	MaxSegments int
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 8
	}
	return o
}

// Journal is the durable sample log. All methods are goroutine-safe.
type Journal struct {
	dir  string
	opts JournalOptions

	mu       sync.Mutex
	active   *framelog.Log // newest segment, open for append, guarded by mu
	seq      uint64        // active segment sequence number, guarded by mu
	segments []uint64      // existing segment sequences, ascending (incl. active), guarded by mu
	sealed   int64         // total bytes of the non-active segments, guarded by mu
	tornTail bool          // guarded by mu
	closed   bool          // guarded by mu
}

// ErrJournalClosed is returned by appends after Close.
var ErrJournalClosed = errors.New("telemetry journal: closed")

// OpenJournal opens (creating if needed) the journal in dir, adds every
// sample it recovers to into, oldest first, and truncates any torn tail
// left by a crash mid-append.
func OpenJournal(dir string, opts JournalOptions, into *History) (*Journal, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, opts: opts}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.recoverLocked(into); err != nil {
		return nil, err
	}
	j.publishSizeLocked()
	return j, nil
}

// recoverLocked lists segments, replays them oldest-first into the
// history, and opens the newest for append. Only that one is ever
// mid-write, so only it is repaired; a torn older segment is counted and
// read up to its tear, its bytes left as they are.
func (j *Journal) recoverLocked(into *History) error {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, journalSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, journalSuffix), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		j.segments = append(j.segments, seq)
	}
	sort.Slice(j.segments, func(a, b int) bool { return j.segments[a] < j.segments[b] })
	if len(j.segments) == 0 {
		j.segments = []uint64{1}
	}

	visit := visitSamples(func(s Sample) error {
		into.Add(s)
		return nil
	})
	last := len(j.segments) - 1
	for _, seq := range j.segments[:last] {
		_, torn, err := framelog.Scan(j.segmentPath(seq), journalMagic, visit)
		if err != nil {
			return journalErr(err)
		}
		fi, err := os.Stat(j.segmentPath(seq))
		if err != nil {
			return err
		}
		j.sealed += fi.Size()
		j.noteTornLocked(torn)
	}
	j.seq = j.segments[last]
	if j.active, err = framelog.Open(j.segmentPath(j.seq), journalMagic, visit); err != nil {
		return journalErr(err)
	}
	j.noteTornLocked(j.active.Torn())
	return nil
}

// visitSamples adapts a sample callback to a frame visitor. A frame that
// is intact but undecodable (newer version, malformed JSON) ends its
// segment like a torn tail, so old readers degrade safely.
func visitSamples(fn func(Sample) error) func(payload []byte) error {
	return func(payload []byte) error {
		s, err := DecodeJournalSample(payload)
		if err != nil {
			return framelog.ErrBadFrame
		}
		return fn(s)
	}
}

// noteTornLocked records one recovered segment's torn tail.
func (j *Journal) noteTornLocked(torn bool) {
	if torn {
		j.tornTail = true
		journalTornTailsTotal.Inc()
	}
}

// journalErr names the journal in a segment's refusal: a wrong-magic
// file is a hard error, never truncated (it is not ours).
func journalErr(err error) error {
	var hdr *framelog.HeaderError
	if errors.As(err, &hdr) {
		return fmt.Errorf("telemetry journal: %s: bad segment magic", hdr.Path)
	}
	return err
}

// publishSizeLocked refreshes the segment-count and size gauges from the
// running totals, so no append has to stat the directory.
func (j *Journal) publishSizeLocked() {
	journalSegments.Set(int64(len(j.segments)))
	journalSizeBytes.Set(j.sealed + j.active.Size())
}

func (j *Journal) segmentPath(seq uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("%012d%s", seq, journalSuffix))
}

// Append persists one sample (fsynced before returning), rotating and
// pruning segments as the size bounds require.
func (j *Journal) Append(s Sample) error {
	start := time.Now()
	payload, err := EncodeJournalSample(s)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	if j.active.Size() >= j.opts.MaxSegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if err := j.active.Append(payload, true); err != nil {
		return err
	}
	journalAppendsTotal.Inc()
	journalAppendSeconds.ObserveSince(start)
	j.publishSizeLocked()
	return nil
}

// rotateLocked seals the active segment, starts the next one, and prunes
// the oldest segments past the budget.
func (j *Journal) rotateLocked() error {
	next, err := framelog.Open(j.segmentPath(j.seq+1), journalMagic, nil)
	if err != nil {
		return err
	}
	if err := j.active.Close(); err != nil {
		_ = next.Close() // the failed seal is the diagnosis
		return err
	}
	j.sealed += j.active.Size()
	j.active = next
	j.seq++
	j.segments = append(j.segments, j.seq)
	journalRotationsTotal.Inc()
	for len(j.segments) > j.opts.MaxSegments {
		oldest := j.segmentPath(j.segments[0])
		if fi, err := os.Stat(oldest); err == nil {
			j.sealed -= fi.Size()
		}
		if err := os.Remove(oldest); err != nil && !os.IsNotExist(err) {
			return err
		}
		j.segments = j.segments[1:]
		journalDroppedSegmentsTotal.Inc()
	}
	return nil
}

// TornTail reports whether open-time recovery truncated a torn frame.
func (j *Journal) TornTail() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tornTail
}

// Replay streams every decodable on-disk sample oldest first. Damaged or
// newer-versioned frames end the segment they sit in (matching open-time
// recovery) without failing the replay.
func (j *Journal) Replay(fn func(Sample) error) error {
	j.mu.Lock()
	segs := append([]uint64(nil), j.segments...)
	j.mu.Unlock()
	for _, seq := range segs {
		if _, _, err := framelog.Scan(j.segmentPath(seq), journalMagic, visitSamples(fn)); err != nil {
			return journalErr(err)
		}
	}
	return nil
}

// Close syncs and closes the active segment. Appends after Close fail
// with ErrJournalClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.active.Sync(); err != nil {
		_ = j.active.Close() // the failed sync is the diagnosis
		return err
	}
	return j.active.Close()
}

// Journal instruments, registered at package init like every metric.
var (
	journalAppendsTotal = NewCounter("telemetry_journal_appends_total",
		"samples appended to the telemetry journal")
	journalAppendSeconds = NewHistogram("telemetry_journal_append_seconds",
		"latency of one journal append, fsync included")
	journalRotationsTotal = NewCounter("telemetry_journal_rotations_total",
		"segment rotations triggered by the size bound")
	journalDroppedSegmentsTotal = NewCounter("telemetry_journal_dropped_segments_total",
		"oldest segments deleted to stay inside the segment budget")
	journalTornTailsTotal = NewCounter("telemetry_journal_torn_tails_total",
		"torn or corrupt segment tails detected during open-time recovery")
	journalSegments = NewGauge("telemetry_journal_segments",
		"segment files currently on disk")
	journalSizeBytes = NewGauge("telemetry_journal_size_bytes",
		"total bytes of journal segments on disk")
)
