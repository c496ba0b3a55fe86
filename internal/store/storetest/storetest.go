// Package storetest is the conformance suite every storage backend must
// pass: ordered replay equivalence, idempotent re-open, snapshot and
// compaction semantics defined by store.Fold, concurrent append/replay
// safety under the race detector, and crash recovery via injected write
// truncation. A future backend (SQL, remote) is validated by
// construction: implement store.Store, describe its medium here, run
// Run.
package storetest

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"sariadne/internal/store"
)

// Medium describes one backend's persistent substrate to the suite: how
// to open (and re-open) a store over it, and how to injure it the way a
// crash would. A Medium's lifetime spans many Open/Close cycles, like a
// file spans many process lifetimes.
type Medium struct {
	// Open opens a store session over the medium. The suite calls it
	// repeatedly, always after closing the previous session.
	Open func() (store.Store, error)
	// Truncate chops n bytes off the persisted tail — the crash-injection
	// hook. Called only between sessions. Truncating past the start of the
	// medium must leave it empty (or as an empty store), not fail. Nil
	// skips the crash-recovery cases (a backend whose medium cannot tear).
	Truncate func(n int64) error
}

// Run executes the conformance suite. newMedium must return a fresh,
// empty medium on each call (each subtest gets its own).
func Run(t *testing.T, newMedium func(t *testing.T) Medium) {
	t.Run("EmptyReplay", func(t *testing.T) { testEmptyReplay(t, newMedium(t)) })
	t.Run("AppendReplayOrder", func(t *testing.T) { testAppendReplayOrder(t, newMedium(t)) })
	t.Run("ReopenIdempotent", func(t *testing.T) { testReopenIdempotent(t, newMedium(t)) })
	t.Run("SnapshotCanonical", func(t *testing.T) { testSnapshotCanonical(t, newMedium(t)) })
	t.Run("CompactFolds", func(t *testing.T) { testCompactFolds(t, newMedium(t)) })
	t.Run("ClosedErrors", func(t *testing.T) { testClosedErrors(t, newMedium(t)) })
	t.Run("ConcurrentAppendReplay", func(t *testing.T) { testConcurrentAppendReplay(t, newMedium(t)) })
	t.Run("CrashTornTail", func(t *testing.T) { testCrashTornTail(t, newMedium(t)) })
	t.Run("CrashProgressiveTruncation", func(t *testing.T) { testCrashProgressive(t, newMedium(t)) })
}

// open fails the test on error.
func open(t *testing.T, m Medium) store.Store {
	t.Helper()
	s, err := m.Open()
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	return s
}

// closeStore fails the test on error.
func closeStore(t *testing.T, s store.Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}
}

// replayAll collects the full replay stream.
func replayAll(t *testing.T, s store.Store) ([]store.Record, store.ReplayStats) {
	t.Helper()
	var recs []store.Record
	stats, err := s.Replay(func(rec store.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, stats
}

// appendAll appends every record, failing fast.
func appendAll(t *testing.T, s store.Store, recs []store.Record) {
	t.Helper()
	for i, rec := range recs {
		if err := s.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// sampleHistory is a representative mutation history: two ontologies
// (one duplicated), a service registered then superseded, a transient
// service registered and withdrawn, and a second live service.
func sampleHistory() []store.Record {
	return []store.Record{
		{Op: store.OpAddOntology, Doc: `<ontology uri="u1"><class name="A"/></ontology>`},
		{Op: store.OpRegister, Name: "alpha", Doc: `<service name="alpha"/>`, Version: 1},
		{Op: store.OpAddOntology, Doc: `<ontology uri="u2"><class name="B"/></ontology>`},
		{Op: store.OpRegister, Name: "transient", Doc: `<service name="transient"/>`, Version: 1},
		{Op: store.OpAddOntology, Doc: `<ontology uri="u1"><class name="A"/></ontology>`},
		{Op: store.OpRegister, Name: "alpha", Doc: `<service name="alpha" provider="p2"/>`, Version: 2},
		{Op: store.OpDeregister, Name: "transient"},
		{Op: store.OpRegister, Name: "beta", Doc: `<service name="beta"/>`, Version: 1},
	}
}

func equalRecords(a, b []store.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func testEmptyReplay(t *testing.T, m Medium) {
	s := open(t, m)
	defer closeStore(t, s)
	recs, stats := replayAll(t, s)
	if len(recs) != 0 || stats.Records != 0 || stats.TornTail {
		t.Fatalf("fresh store replayed %d records, stats %+v", len(recs), stats)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if len(snap) != 0 {
		t.Fatalf("fresh store snapshot = %v", snap)
	}
}

func testAppendReplayOrder(t *testing.T, m Medium) {
	history := sampleHistory()
	s := open(t, m)
	appendAll(t, s, history)
	recs, stats := replayAll(t, s)
	if !equalRecords(recs, history) {
		t.Fatalf("replay order diverged:\n got %v\nwant %v", recs, history)
	}
	if stats.Records != len(history) {
		t.Fatalf("stats = %+v, want %d records", stats, len(history))
	}
	closeStore(t, s)
}

func testReopenIdempotent(t *testing.T, m Medium) {
	history := sampleHistory()
	s := open(t, m)
	appendAll(t, s, history)
	closeStore(t, s)

	// Re-opening without writes must be stable, however many times.
	for i := 0; i < 3; i++ {
		s = open(t, m)
		recs, stats := replayAll(t, s)
		if !equalRecords(recs, history) {
			t.Fatalf("reopen %d: replay diverged: got %d records, want %d", i, len(recs), len(history))
		}
		if stats.TornTail {
			t.Fatalf("reopen %d: clean history reported a torn tail", i)
		}
		closeStore(t, s)
	}

	// Appends after a reopen extend the same history.
	extra := store.Record{Op: store.OpRegister, Name: "late", Doc: `<service name="late"/>`, Version: 1}
	s = open(t, m)
	if err := s.Append(extra); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	closeStore(t, s)
	s = open(t, m)
	recs, _ := replayAll(t, s)
	if !equalRecords(recs, append(append([]store.Record(nil), history...), extra)) {
		t.Fatalf("history+extra diverged after reopen: %v", recs)
	}
	closeStore(t, s)
}

func testSnapshotCanonical(t *testing.T, m Medium) {
	history := sampleHistory()
	s := open(t, m)
	defer closeStore(t, s)
	appendAll(t, s, history)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if want := store.Fold(history); !equalRecords(snap, want) {
		t.Fatalf("snapshot is not the folded history:\n got %v\nwant %v", snap, want)
	}
	// Snapshot must not mutate: the raw history still replays.
	recs, _ := replayAll(t, s)
	if !equalRecords(recs, history) {
		t.Fatalf("snapshot mutated the store: replay now %v", recs)
	}
}

func testCompactFolds(t *testing.T, m Medium) {
	history := sampleHistory()
	s := open(t, m)
	appendAll(t, s, history)
	want, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	recs, _ := replayAll(t, s)
	if !equalRecords(recs, want) {
		t.Fatalf("post-compact replay is not the pre-compact snapshot:\n got %v\nwant %v", recs, want)
	}
	// Compaction is idempotent.
	if err := s.Compact(); err != nil {
		t.Fatalf("second compact: %v", err)
	}
	recs, _ = replayAll(t, s)
	if !equalRecords(recs, want) {
		t.Fatalf("second compact changed the state: %v", recs)
	}
	// Appends continue after compaction and survive a reopen.
	extra := store.Record{Op: store.OpDeregister, Name: "beta"}
	if err := s.Append(extra); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	closeStore(t, s)
	s = open(t, m)
	recs, _ = replayAll(t, s)
	if !equalRecords(recs, append(append([]store.Record(nil), want...), extra)) {
		t.Fatalf("compacted history + append diverged after reopen: %v", recs)
	}
	closeStore(t, s)
}

func testClosedErrors(t *testing.T, m Medium) {
	s := open(t, m)
	appendAll(t, s, sampleHistory()[:2])
	closeStore(t, s)
	if err := s.Append(store.Record{Op: store.OpDeregister, Name: "x"}); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("Append on closed store = %v, want ErrClosed", err)
	}
	if _, err := s.Replay(func(store.Record) error { return nil }); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("Replay on closed store = %v, want ErrClosed", err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("Snapshot on closed store = %v, want ErrClosed", err)
	}
	if err := s.Compact(); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("Compact on closed store = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// testConcurrentAppendReplay races writers against replayers (run the
// suite under -race). Correctness bar: no data race, every append
// present exactly once afterwards, and each writer's records appear in
// its own append order.
func testConcurrentAppendReplay(t *testing.T, m Medium) {
	const writers, perWriter = 4, 25
	s := open(t, m)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := store.Record{
					Op:      store.OpRegister,
					Name:    fmt.Sprintf("svc-%d-%d", w, i),
					Doc:     fmt.Sprintf(`<service name="svc-%d-%d"/>`, w, i),
					Version: uint64(i + 1),
				}
				if err := s.Append(rec); err != nil {
					t.Errorf("writer %d append %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	// Replay concurrently with the writers: each pass must observe a
	// consistent prefix (no decode errors, no partial records).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := s.Replay(func(store.Record) error { return nil }); err != nil {
					t.Errorf("concurrent replay: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	recs, stats := replayAll(t, s)
	if len(recs) != writers*perWriter || stats.Records != len(recs) {
		t.Fatalf("final replay = %d records (%d counted), want %d", len(recs), stats.Records, writers*perWriter)
	}
	// Per-writer order: versions of each writer's records must ascend.
	lastVer := make(map[string]uint64)
	for _, rec := range recs {
		w := rec.Name[:len(rec.Name)-len(fmt.Sprintf("-%d", rec.Version-1))]
		if rec.Version <= lastVer[w] {
			t.Fatalf("writer %s order violated: version %d after %d", w, rec.Version, lastVer[w])
		}
		lastVer[w] = rec.Version
	}
	closeStore(t, s)
}

// testCrashTornTail is the canonical crash: one byte lost off the tail
// mid-append. Every complete record must be recovered, the tear
// reported, and the store must accept new appends afterwards.
func testCrashTornTail(t *testing.T, m Medium) {
	if m.Truncate == nil {
		t.Skip("medium does not support crash injection")
	}
	history := sampleHistory()
	s := open(t, m)
	appendAll(t, s, history)
	closeStore(t, s)

	if err := m.Truncate(1); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	s = open(t, m)
	recs, stats := replayAll(t, s)
	if !stats.TornTail {
		t.Fatalf("torn tail not reported; stats %+v", stats)
	}
	if want := history[:len(history)-1]; !equalRecords(recs, want) {
		t.Fatalf("crash recovery diverged:\n got %v\nwant %v", recs, want)
	}
	// The recovered store keeps working: append, close, reopen, replay.
	marker := store.Record{Op: store.OpRegister, Name: "after-crash", Doc: `<service name="after-crash"/>`, Version: 1}
	if err := s.Append(marker); err != nil {
		t.Fatalf("append after crash recovery: %v", err)
	}
	closeStore(t, s)
	s = open(t, m)
	recs, _ = replayAll(t, s)
	if want := append(append([]store.Record(nil), history[:len(history)-1]...), marker); !equalRecords(recs, want) {
		t.Fatalf("post-recovery history diverged:\n got %v\nwant %v", recs, want)
	}
	closeStore(t, s)
}

// testCrashProgressive grinds the medium down a few bytes at a time:
// every truncation point must open successfully and replay a strict
// prefix of the original history — no crash offset may brick the store.
func testCrashProgressive(t *testing.T, m Medium) {
	if m.Truncate == nil {
		t.Skip("medium does not support crash injection")
	}
	history := sampleHistory()
	s := open(t, m)
	appendAll(t, s, history)
	closeStore(t, s)

	prev := len(history)
	for iter := 0; prev > 0; iter++ {
		if iter > 10000 {
			t.Fatal("progressive truncation did not terminate")
		}
		if err := m.Truncate(7); err != nil {
			t.Fatalf("truncate at iter %d: %v", iter, err)
		}
		s = open(t, m)
		recs, _ := replayAll(t, s)
		if len(recs) > prev {
			t.Fatalf("iter %d: replay grew from %d to %d records after truncation", iter, prev, len(recs))
		}
		if !equalRecords(recs, history[:len(recs)]) {
			t.Fatalf("iter %d: replay is not a prefix of the original history: %v", iter, recs)
		}
		prev = len(recs)
		closeStore(t, s)
	}
}
