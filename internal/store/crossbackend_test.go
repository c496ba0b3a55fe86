package store_test

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"sariadne/internal/store"
	"sariadne/internal/store/boltlike"
	"sariadne/internal/store/memstore"
)

// openAll returns one fresh store per backend, closed via t.Cleanup.
func openAll(t *testing.T) map[string]store.Store {
	t.Helper()
	bs, err := boltlike.Open(filepath.Join(t.TempDir(), "s.bolt"), store.Options{})
	if err != nil {
		t.Fatalf("boltlike: %v", err)
	}
	all := map[string]store.Store{"mem": memstore.New(), "bolt": bs}
	t.Cleanup(func() {
		for _, s := range all {
			_ = s.Close()
		}
	})
	return all
}

// TestCrossBackendReplayEquivalence is the interchangeability contract:
// the same history appended to the durable engine and to the in-memory
// fake replays and snapshots identically, so tests over memstore speak
// for the daemon.
func TestCrossBackendReplayEquivalence(t *testing.T) {
	history := []store.Record{
		{Op: store.OpAddOntology, Doc: `<ontology uri="u1"/>`},
		{Op: store.OpRegister, Name: "alpha", Doc: `<service name="alpha"/>`, Version: 1},
		{Op: store.OpRegister, Name: "beta", Doc: `<service name="beta"/>`, Version: 1},
		{Op: store.OpRegister, Name: "alpha", Doc: `<service name="alpha" provider="p"/>`, Version: 2},
		{Op: store.OpDeregister, Name: "beta"},
	}
	all := openAll(t)
	replays := make(map[string][]store.Record)
	snapshots := make(map[string][]store.Record)
	for name, s := range all {
		for i, rec := range history {
			if err := s.Append(rec); err != nil {
				t.Fatalf("%s append %d: %v", name, i, err)
			}
		}
		var recs []store.Record
		if _, err := s.Replay(func(rec store.Record) error {
			recs = append(recs, rec)
			return nil
		}); err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		replays[name] = recs
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatalf("%s snapshot: %v", name, err)
		}
		snapshots[name] = snap
	}
	for name, recs := range replays {
		if !reflect.DeepEqual(recs, history) {
			t.Fatalf("%s replay diverged:\n got %+v\nwant %+v", name, recs, history)
		}
	}
	want := store.Fold(history)
	for name, snap := range snapshots {
		if !reflect.DeepEqual(snap, want) {
			t.Fatalf("%s snapshot diverged:\n got %+v\nwant %+v", name, snap, want)
		}
	}
}

// TestMigrateBetweenBackends imports a headered v2 JSON-lines history
// (the v1 dialect is the golden test's) into each backend: the
// destination must hold exactly the folded source state.
func TestMigrateBetweenBackends(t *testing.T) {
	history := []store.Record{
		{Op: store.OpAddOntology, Doc: `<ontology uri="u1"/>`},
		{Op: store.OpRegister, Name: "alpha", Doc: `<service name="alpha"/>`, Version: 1},
		{Op: store.OpRegister, Name: "gone", Doc: `<service name="gone"/>`, Version: 1},
		{Op: store.OpDeregister, Name: "gone"},
	}
	want := store.Fold(history)
	journal := []byte(`{"format":"sdp-store","v":2}` + "\n")
	for _, rec := range history {
		line, err := store.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}
	for _, dstKind := range []string{"mem", "bolt"} {
		t.Run("jsonl_to_"+dstKind, func(t *testing.T) {
			dst := openAll(t)[dstKind]
			stats, err := store.Import(bytes.NewReader(journal), dst)
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			if stats.Replayed != len(history) || stats.Live != len(want) {
				t.Fatalf("stats = %+v, want %d replayed / %d live", stats, len(history), len(want))
			}
			var got []store.Record
			if _, err := dst.Replay(func(rec store.Record) error {
				got = append(got, rec)
				return nil
			}); err != nil {
				t.Fatalf("destination replay: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("destination holds %+v, want %+v", got, want)
			}
		})
	}
}

func TestMigrateRefusesNonEmptyDestination(t *testing.T) {
	dst := openAll(t)["bolt"]
	if err := dst.Append(store.Record{Op: store.OpRegister, Name: "b", Doc: `<service name="b"/>`, Version: 1}); err != nil {
		t.Fatal(err)
	}
	src := []byte(`{"op":"register","doc":"<service name=\"a\"/>"}` + "\n")
	if _, err := store.Import(bytes.NewReader(src), dst); err != store.ErrDestinationNotEmpty {
		t.Fatalf("import into non-empty destination = %v, want ErrDestinationNotEmpty", err)
	}
}
