// Package boltlike is the durable storage engine of a directory daemon: a
// bitcask/bolt-inspired log-structured store in one file. Each record is
// one frame of the shared durable log (internal/framelog, which owns the
// frame layout, scan-stop crash recovery and the atomic rewrite); this
// package adds the record codec, an in-memory keydir tracking the live
// advertisement set, compaction to the canonical fold, the grouped-sync
// policy and the store metrics.
//
// The file header is the 8-byte magic "SDPBOLT\x01" followed by the
// uint32 LE record schema version. A file with any other head is refused
// untouched (store.CorruptError) — it is not ours to truncate — and a
// header from a newer schema fails with store.VersionError.
package boltlike

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"sariadne/internal/framelog"
	"sariadne/internal/store"
)

// header opens every store file: magic + record schema version.
var header = binary.LittleEndian.AppendUint32(append([]byte(nil), store.BoltMagic...), store.RecordVersion)

// Store is a boltlike store over one file.
type Store struct {
	path      string
	syncEvery int
	log       *framelog.Log

	// mu orders appends against compaction and guards the keydir; the log
	// synchronizes itself, so replays run outside it.
	mu      sync.Mutex
	pending int             // appends since the last fsync, guarded by mu
	live    map[string]bool // keydir: live service names, guarded by mu
}

// Open opens (creating if needed) the store at path, validating every
// frame and truncating crash damage at the tail.
func Open(path string, opts store.Options) (*Store, error) {
	live := make(map[string]bool)
	log, err := framelog.Open(path, header, visitRecords(func(rec store.Record) error {
		applyKeydir(live, rec)
		return nil
	}))
	var hdr *framelog.HeaderError
	if errors.As(err, &hdr) {
		return nil, headerError(hdr)
	}
	if err != nil {
		return nil, fmt.Errorf("boltlike: %w", err)
	}
	if log.Torn() {
		store.CountTornTail()
	}
	return &Store{path: path, syncEvery: opts.Interval(), log: log, live: live}, nil
}

// visitRecords adapts a record callback to a frame visitor. A checksummed
// frame that fails to decode was written by code this binary does not
// understand; scan-stop treats it like damage rather than guessing.
func visitRecords(apply func(rec store.Record) error) func(payload []byte) error {
	return func(payload []byte) error {
		rec, err := store.DecodeRecord(payload)
		if err != nil {
			return framelog.ErrBadFrame
		}
		return apply(rec)
	}
}

// headerError types the refusal of a file that does not open with this
// build's header.
func headerError(e *framelog.HeaderError) error {
	if len(e.Got) == len(header) && bytes.HasPrefix(e.Got, store.BoltMagic) {
		if v := binary.LittleEndian.Uint32(e.Got[len(store.BoltMagic):]); v > store.RecordVersion {
			return &store.VersionError{Got: int(v), Max: store.RecordVersion}
		}
	}
	return &store.CorruptError{Path: e.Path, Offset: 0, Reason: "not a boltlike store (bad header); " +
		"a legacy JSON-lines journal is imported with sdpd -state <journal> -migrate-store <new store>"}
}

// wrapErr maps the log's errors onto the store contract.
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, os.ErrClosed) {
		return store.ErrClosed
	}
	return fmt.Errorf("boltlike: %w", err)
}

// applyKeydir folds one record into a live-name index.
func applyKeydir(live map[string]bool, rec store.Record) {
	switch rec.Op {
	case store.OpRegister:
		if rec.Name != "" {
			live[rec.Name] = true
		}
	case store.OpDeregister:
		delete(live, rec.Name)
	}
}

// LiveServices reports the keydir's live advertisement count — an O(1)
// stat no replay needs.
func (s *Store) LiveServices() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// Append implements store.Store.
func (s *Store) Append(rec store.Record) error {
	start := time.Now()
	payload, err := store.EncodeRecord(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fsync := s.pending+1 >= s.syncEvery
	if err := s.log.Append(payload, fsync); err != nil {
		return wrapErr(err)
	}
	applyKeydir(s.live, rec)
	s.pending++
	if fsync {
		s.pending = 0
		store.CountSync()
	}
	store.CountAppend(start)
	return nil
}

// Replay implements store.Store, streaming a consistent prefix while
// appends continue.
func (s *Store) Replay(apply func(rec store.Record) error) (store.ReplayStats, error) {
	stats := store.ReplayStats{TornTail: s.log.Torn()}
	var err error
	if stats.Records, err = s.scan(apply); err != nil {
		return stats, err
	}
	store.CountReplayRecords(stats.Records)
	return stats, nil
}

// scan decodes the log's validated prefix into apply and counts the
// records delivered. Frames in that prefix were either checked at open
// or written by this process, so damage here is reported as corruption
// rather than skipped. An error from apply is returned verbatim.
func (s *Store) scan(apply func(rec store.Record) error) (records int, err error) {
	var applyErr error
	good, torn, err := s.log.Scan(visitRecords(func(rec store.Record) error {
		if applyErr = apply(rec); applyErr != nil {
			return applyErr
		}
		records++
		return nil
	}))
	switch {
	case applyErr != nil:
		return records, applyErr
	case err != nil:
		return records, wrapErr(err)
	case torn:
		return records, &store.CorruptError{Path: s.path, Offset: good, Reason: "damaged frame inside validated prefix"}
	}
	return records, nil
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

// Compact implements store.Store: the canonical fold replaces the log
// through the log's atomic rewrite. mu is held throughout, so no append
// can land between reading the history and replacing it.
func (s *Store) Compact() error {
	return store.TimeCompact(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		var history []store.Record
		if _, err := s.scan(func(rec store.Record) error {
			history = append(history, rec)
			return nil
		}); err != nil {
			return err
		}
		canonical := store.Fold(history)
		payloads := make([][]byte, len(canonical))
		live := make(map[string]bool)
		for i, rec := range canonical {
			payload, err := store.EncodeRecord(rec)
			if err != nil {
				return err
			}
			payloads[i] = payload
			applyKeydir(live, rec)
		}
		if err := s.log.Rewrite(payloads); err != nil {
			return wrapErr(err)
		}
		s.pending = 0
		s.live = live
		return nil
	})
}

// Close implements store.Store: outstanding appends are synced, then the
// handle is released. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var syncErr error
	if s.pending > 0 {
		s.pending = 0
		if syncErr = s.log.Sync(); syncErr == nil {
			store.CountSync()
		}
	}
	if err := s.log.Close(); err != nil {
		return wrapErr(err)
	}
	if syncErr != nil {
		return fmt.Errorf("boltlike: close: %w", syncErr)
	}
	return nil
}

// Healthy implements store.Prober.
func (s *Store) Healthy() error {
	return wrapErr(s.log.Healthy())
}

var _ store.Store = (*Store)(nil)
var _ store.Prober = (*Store)(nil)
