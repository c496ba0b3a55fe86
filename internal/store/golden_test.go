package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sariadne/internal/store"
	"sariadne/internal/store/boltlike"
)

// goldenBolt is the checked-in store file that pins the on-disk format:
// two ontology uploads and one register written without a name or a
// version, as the earliest daemons wrote their records.
const goldenBolt = "v2_migrated.golden.bolt"

// copyGolden copies the golden store file into a fresh temporary
// directory, so a test can open it read-write and leave the fixture alone.
func copyGolden(t *testing.T) (path string, golden []byte) {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", goldenBolt))
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), goldenBolt)
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, golden
}

// TestGoldenBoltFile holds the engine to the format it has always
// written: the golden file replays to its three records, Compact (already
// canonical) rewrites it to the same bytes, and appending those records
// to an empty store reproduces it.
func TestGoldenBoltFile(t *testing.T) {
	path, golden := copyGolden(t)
	s, err := boltlike.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var recs []store.Record
	stats, err := s.Replay(func(rec store.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats != (store.ReplayStats{Records: 3}) {
		t.Fatalf("replay stats = %+v, want 3 records", stats)
	}
	if recs[0].Op != store.OpAddOntology || recs[1].Op != store.OpAddOntology {
		t.Fatalf("records 0 and 1 = %s, %s, want two ontologies", recs[0].Op, recs[1].Op)
	}
	if reg := recs[2]; reg.Op != store.OpRegister || reg.Name != "" || reg.Version != 0 ||
		!strings.Contains(reg.Doc, `name="MediaWorkstation"`) {
		t.Fatalf("record 2 = %+v, want a nameless version-0 register of MediaWorkstation", reg)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, golden) {
		t.Fatalf("Compact rewrote the golden file: %d bytes, want %d (err %v)", len(after), len(golden), err)
	}

	fresh := filepath.Join(t.TempDir(), "fresh.bolt")
	f, err := boltlike.Open(fresh, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := f.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if out, err := os.ReadFile(fresh); err != nil || !bytes.Equal(out, golden) {
		t.Fatalf("re-appended records: %d bytes, want the golden %d (err %v)", len(out), len(golden), err)
	}
}
