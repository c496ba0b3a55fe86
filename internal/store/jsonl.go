package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// JSON-lines histories — the headerless v1 sdpd journal and the headered
// v2 file earlier releases wrote — are import-only: ReadLines is the one
// reader of the format, Import moves what it reads into a live store (the
// operator path is `sdpd -state old.jsonl -migrate-store new`). Nothing
// writes the format to disk any more; memstore keeps it as its in-memory
// medium, so the test fake stays readable, and shares the reader.

// BoltMagic opens every boltlike store file. It lives here so the
// line reader can refuse a framed store handed to it by mistake
// without importing the backend (which imports this package).
var BoltMagic = []byte("SDPBOLT\x01")

// ErrNotLegacy is returned when a source handed to the line reader is
// already a framed store: there is nothing to import.
var ErrNotLegacy = errors.New("store: source is already a boltlike store, not a JSON-lines journal")

// ReadLines streams the records of a JSON-lines history into apply, in
// order; the source is only read. A leading v2 header line is
// recognized and skipped (one from a newer schema fails with
// *VersionError); blank lines are ignored; complete lines that do not
// decode are counted in Skipped — the v1 contract was to tolerate junk;
// a final chunk with no newline is a crash-torn record, reported as
// TornTail and not delivered. An error from apply aborts the read and is
// returned verbatim.
func ReadLines(src io.Reader, apply func(rec Record) error) (ReplayStats, error) {
	var stats ReplayStats
	r := bufio.NewReader(src)
	if head, _ := r.Peek(len(BoltMagic)); bytes.Equal(head, BoltMagic) {
		return stats, ErrNotLegacy
	}
	for first := true; ; first = false {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			stats.TornTail = len(line) > 0
			return stats, nil
		}
		if err != nil {
			return stats, fmt.Errorf("store: reading JSON-lines journal: %w", err)
		}
		line = line[:len(line)-1]
		if first {
			if isHeader, err := DecodeFileHeader(line); err != nil {
				return stats, err
			} else if isHeader {
				continue
			}
		}
		if len(line) == 0 {
			continue
		}
		rec, err := DecodeRecord(line)
		if err != nil {
			stats.Skipped++
			continue
		}
		if err := apply(rec); err != nil {
			return stats, err
		}
		stats.Records++
	}
}

// MigrateStats reports what an import moved.
type MigrateStats struct {
	// Replayed is the number of records read from the source history.
	Replayed int
	// Skipped counts undecodable source lines tolerated by the reader.
	Skipped int
	// TornTail reports the source history ended in a crash-torn record.
	TornTail bool
	// Live is the number of canonical records written to the destination
	// — the folded state, not the raw history.
	Live int
}

// ErrDestinationNotEmpty guards imports from clobbering an existing
// history: the destination store must replay zero records.
var ErrDestinationNotEmpty = errors.New("store: migration destination is not empty")

// Import folds the legacy JSON-lines history in src to its canonical
// state and appends it to the (empty) destination store, which is synced
// via its own Append contract and not closed.
//
// Import writes the *folded* state, so the destination replays in
// canonical order and byte-identical output is guaranteed for identical
// source state — the golden-file property.
func Import(src io.Reader, dst Store) (MigrateStats, error) {
	var stats MigrateStats
	probe, err := dst.Replay(func(Record) error { return nil })
	if err != nil {
		return stats, fmt.Errorf("store: import: probing destination: %w", err)
	}
	if probe.Records > 0 || probe.Skipped > 0 {
		return stats, ErrDestinationNotEmpty
	}
	var history []Record
	srcStats, err := ReadLines(src, func(rec Record) error {
		history = append(history, rec)
		return nil
	})
	stats.Replayed = srcStats.Records
	stats.Skipped = srcStats.Skipped
	stats.TornTail = srcStats.TornTail
	if err != nil {
		return stats, fmt.Errorf("store: import: reading source: %w", err)
	}
	for _, rec := range Fold(history) {
		if err := dst.Append(rec); err != nil {
			return stats, fmt.Errorf("store: import: writing destination: %w", err)
		}
		stats.Live++
	}
	return stats, nil
}
