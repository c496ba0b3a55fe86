// Package memstore is the in-memory storage backend: a log of one
// codec-encoded record per line kept in a byte buffer. It exists
// for tests, sdpsim and ephemeral daemons (sdpd -store mem) — and because
// it shares the real codec and a truncatable medium, it passes the full
// conformance suite including the injected-truncation crash cases, so
// test doubles exercise exactly the production semantics.
package memstore

import (
	"bytes"
	"sync"
	"time"

	"sariadne/internal/store"
)

// Medium is the in-memory byte log a Store persists into. It outlives
// any one Store handle the way a file outlives a process: closing a
// store and reopening the medium replays the same history. Tests inject
// crashes by truncating it between sessions.
type Medium struct {
	mu  sync.Mutex
	buf []byte // guarded by mu
}

// NewMedium returns an empty in-memory log.
func NewMedium() *Medium { return &Medium{} }

// Len returns the current log size in bytes.
func (m *Medium) Len() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.buf))
}

// Truncate drops the last n bytes of the log — the in-memory analogue of
// a crash tearing the tail of a file mid-write.
func (m *Medium) Truncate(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n >= int64(len(m.buf)) {
		m.buf = nil
		return
	}
	m.buf = m.buf[:int64(len(m.buf))-n]
}

// Store is one open session over a Medium.
type Store struct {
	med *Medium

	mu       sync.Mutex
	closed   bool // guarded by mu
	tornTail bool // guarded by mu; open dropped an incomplete trailing line
}

// New returns a store over a fresh private medium — the common case for
// tests that do not exercise reopen.
func New() *Store {
	s, err := Open(NewMedium())
	if err != nil {
		// An empty medium cannot fail to open.
		panic(err)
	}
	return s
}

// Open starts a session over med, recovering from a torn tail: the bytes
// after the last complete line are dropped.
func Open(med *Medium) (*Store, error) {
	s := &Store{med: med}
	med.mu.Lock()
	defer med.mu.Unlock()
	if i := bytes.LastIndexByte(med.buf, '\n'); i < len(med.buf)-1 {
		med.buf = med.buf[:i+1]
		s.tornTail = true
		store.CountTornTail()
	}
	return s, nil
}

// Append implements store.Store.
func (s *Store) Append(rec store.Record) error {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return store.ErrClosed
	}
	data, err := store.EncodeRecord(rec)
	if err != nil {
		return err
	}
	s.med.mu.Lock()
	s.med.buf = append(s.med.buf, data...)
	s.med.buf = append(s.med.buf, '\n')
	s.med.mu.Unlock()
	store.CountAppend(start)
	store.CountSync() // memory is always "synced"
	return nil
}

// snapshotBuf copies the current log so decoding happens outside the
// medium lock and concurrent appends extend past a consistent prefix.
func (s *Store) snapshotBuf() ([]byte, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, store.ErrClosed
	}
	s.med.mu.Lock()
	defer s.med.mu.Unlock()
	return append([]byte(nil), s.med.buf...), nil
}

// Replay implements store.Store.
func (s *Store) Replay(apply func(rec store.Record) error) (store.ReplayStats, error) {
	buf, err := s.snapshotBuf()
	if err != nil {
		return store.ReplayStats{}, err
	}
	var stats store.ReplayStats
	stats.Records, err = readLines(buf, apply)
	s.mu.Lock()
	stats.TornTail = s.tornTail
	s.mu.Unlock()
	if err != nil {
		return stats, err
	}
	store.CountReplayRecords(stats.Records)
	return stats, nil
}

// readLines decodes buf, one record a line, into apply and counts the
// records delivered. Every complete line was written by this package, so
// one that does not decode is damage and ends the read with its error;
// bytes after the last newline are a tear, which Open drops. An error
// from apply is returned verbatim.
func readLines(buf []byte, apply func(rec store.Record) error) (records int, err error) {
	for {
		line, rest, ok := bytes.Cut(buf, []byte{'\n'})
		if !ok {
			return records, nil
		}
		rec, err := store.DecodeRecord(line)
		if err != nil {
			return records, err
		}
		if err := apply(rec); err != nil {
			return records, err
		}
		records++
		buf = rest
	}
}

// Snapshot implements store.Store.
func (s *Store) Snapshot() ([]store.Record, error) {
	var history []store.Record
	if _, err := s.Replay(func(rec store.Record) error {
		history = append(history, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return store.Fold(history), nil
}

// Compact implements store.Store: the medium is rebuilt from the folded
// state. Both locks are held across the fold and the swap so no
// concurrent append lands between reading the history and replacing it.
func (s *Store) Compact() error {
	return store.TimeCompact(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return store.ErrClosed
		}
		s.med.mu.Lock()
		defer s.med.mu.Unlock()
		var history []store.Record
		if _, err := readLines(s.med.buf, func(rec store.Record) error {
			history = append(history, rec)
			return nil
		}); err != nil {
			return err
		}
		var buf []byte
		for _, rec := range store.Fold(history) {
			data, err := store.EncodeRecord(rec)
			if err != nil {
				return err
			}
			buf = append(buf, data...)
			buf = append(buf, '\n')
		}
		s.med.buf = buf
		s.tornTail = false
		return nil
	})
}

// Close implements store.Store. Closing is idempotent; the medium keeps
// the history for a later Open.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// Healthy implements store.Prober.
func (s *Store) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return store.ErrClosed
	}
	return nil
}

var _ store.Store = (*Store)(nil)
var _ store.Prober = (*Store)(nil)
