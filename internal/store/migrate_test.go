package store_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/store"
	"sariadne/internal/store/boltlike"
)

var update = flag.Bool("update", false, "rewrite the migration golden file (and the v1 fixture)")

// v1Entry reproduces the original journalEntry wire shape so the checked-
// in fixture is byte-for-byte what an old sdpd wrote (including
// json.Marshal's HTML escaping of the XML payloads).
type v1Entry struct {
	Op   string `json:"op"`
	Doc  string `json:"doc,omitempty"`
	Name string `json:"name,omitempty"`
}

// v1Fixture builds the legacy journal: two ontology uploads, a
// registration, a register/deregister pair, a junk line, and a torn
// final record — every hazard the migration path must absorb.
func v1Fixture(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	add := func(e v1Entry) {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
		doc, err := ontology.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		add(v1Entry{Op: "add-ontology", Doc: string(doc)})
	}
	ws, err := profile.Marshal(profile.WorkstationService())
	if err != nil {
		t.Fatal(err)
	}
	add(v1Entry{Op: "register", Doc: string(ws)})
	transient := profile.WorkstationService()
	transient.Name = "Transient"
	trDoc, err := profile.Marshal(transient)
	if err != nil {
		t.Fatal(err)
	}
	add(v1Entry{Op: "register", Doc: string(trDoc)})
	add(v1Entry{Op: "deregister", Name: "Transient"})
	buf.WriteString("not json at all\n")
	// A crash mid-append: half a record, no newline.
	pda, err := profile.Marshal(profile.PDAService())
	if err != nil {
		t.Fatal(err)
	}
	torn, err := json.Marshal(v1Entry{Op: "register", Doc: string(pda)})
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(torn[:len(torn)/2])
	return buf.Bytes()
}

// fixturePath returns the checked-in v1 journal, regenerating it under
// -update and verifying it matches the generator otherwise (the fixture
// is itself golden: it must stay what the old code wrote).
func fixturePath(t *testing.T) string {
	t.Helper()
	path := filepath.Join("testdata", "v1_journal.jsonl")
	want := v1Fixture(t)
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checked-in v1 fixture drifted from the legacy format (regenerate with -update)")
	}
	return path
}

// checkGolden compares got against the checked-in golden, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (regenerate with -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: migration output is not byte-identical to the golden file\n got %d bytes\nwant %d bytes", name, len(got), len(want))
	}
}

// migrateFixture imports the checked-in v1 fixture into dst and checks
// the import stats. The source is only read: fixturePath already proved
// the file matches its generator, and the import must leave it so.
func migrateFixture(t *testing.T, dst store.Store) {
	t.Helper()
	path := fixturePath(t)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	stats, err := store.Import(src, dst)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	// 5 good records, 1 junk line, 1 torn record; 2 ontologies + the one
	// live service survive the fold.
	want := store.MigrateStats{Replayed: 5, Skipped: 1, TornTail: true, Live: 3}
	if stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("import modified its source (err %v)", err)
	}
}

// TestMigrateV1GoldenBolt is the journal→store upgrade path pinned to the
// byte: the same v1 journal must always produce the identical canonical
// store file — and the golden predates internal/framelog, so it also
// pins that the rebuilt engine writes the format the old one did.
func TestMigrateV1GoldenBolt(t *testing.T) {
	run := func(t *testing.T) []byte {
		dstPath := filepath.Join(t.TempDir(), "v2.bolt")
		dst, err := boltlike.Open(dstPath, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		migrateFixture(t, dst)
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(dstPath)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := run(t)
	checkGolden(t, "v2_migrated.golden.bolt", out)
	// Determinism: a second migration of the same journal is identical.
	if again := run(t); !bytes.Equal(out, again) {
		t.Fatal("two migrations of the same journal produced different bytes")
	}
}

// collectLegacy reads a JSON-lines history into memory.
func collectLegacy(t *testing.T, content string) ([]store.Record, store.ReplayStats) {
	t.Helper()
	var got []store.Record
	stats, err := store.ReadLines(strings.NewReader(content), func(rec store.Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadLines: %v", err)
	}
	return got, stats
}

// TestTornTailPartialRecord pins the torn-tail behavior at the byte
// level: a headered file ending in half a record reports the tear and
// delivers only the complete records.
func TestTornTailPartialRecord(t *testing.T) {
	header := `{"format":"sdp-store","v":2}` + "\n"
	whole := `{"v":2,"op":"register","doc":"<service name=\"a\"/>","name":"a","ver":1}` + "\n"
	torn := `{"v":2,"op":"register","doc":"<service nam` // crash mid-write: no newline
	got, stats := collectLegacy(t, header+whole+torn)
	if !stats.TornTail {
		t.Fatal("torn tail not reported")
	}
	if len(got) != 1 || got[0].Name != "a" || stats.Records != 1 || stats.Skipped != 0 {
		t.Fatalf("read %v (%+v), want the one whole record", got, stats)
	}
}

// TestLegacyJournalCompatibility proves a v1 journal (no header, HTML-
// escaped docs, junk tolerated) still reads — the old journal_test
// contract carried forward onto the import path.
func TestLegacyJournalCompatibility(t *testing.T) {
	lines := strings.Join([]string{
		`{"op":"add-ontology","doc":"<ontology uri=\"u1\"/>"}`,
		`not json at all`,
		``,
		`{"op":"register","doc":"<service name=\"legacy\"/>"}`,
		`{"weird":"shape"}`, // decodes to no op: skipped
	}, "\n") + "\n"
	got, stats := collectLegacy(t, lines)
	if stats.Records != 2 || stats.Skipped != 2 || stats.TornTail {
		t.Fatalf("stats = %+v, want 2 records and 2 skipped", stats)
	}
	if got[0].Op != store.OpAddOntology || got[0].Doc != `<ontology uri="u1"/>` {
		t.Fatalf("ontology record = %+v", got[0])
	}
	if got[1].Op != store.OpRegister || got[1].Doc != `<service name="legacy"/>` {
		t.Fatalf("register record = %+v", got[1])
	}
}
