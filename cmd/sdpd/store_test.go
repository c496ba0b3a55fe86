package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
	"sariadne/internal/store"
	"sariadne/internal/testutil"
)

// TestStorePersistAndReplay is the durability round trip, run against
// every backend sdpd can select: mutations from one server lifetime
// recover into a second one.
func TestStorePersistAndReplay(t *testing.T) {
	for _, kind := range []string{"bolt", "mem"} {
		t.Run(kind, func(t *testing.T) {
			cfg := bareConfig()
			cfg.storeKind, cfg.state = kind, filepath.Join(t.TempDir(), "state")

			// First server lifetime: persist ontologies and registrations.
			s1 := bootServer(t, cfg)
			for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
				data, err := ontology.Marshal(o)
				if err != nil {
					t.Fatal(err)
				}
				if resp := s1.handle(sdpapi.Request{Op: "add-ontology", Doc: string(data)}); !resp.OK {
					t.Fatalf("add-ontology: %s", resp.Error)
				}
			}
			if resp := s1.handle(sdpapi.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())}); !resp.OK {
				t.Fatalf("register: %s", resp.Error)
			}
			// Register and withdraw a second service: replay must converge to
			// the post-deregistration state.
			other := profile.WorkstationService()
			other.Name = "Transient"
			if resp := s1.handle(sdpapi.Request{Op: "register", Doc: mustDoc(t, other)}); !resp.OK {
				t.Fatalf("register transient: %s", resp.Error)
			}
			if resp := s1.handle(sdpapi.Request{Op: "deregister", Name: "Transient"}); !resp.OK {
				t.Fatalf("deregister: %s", resp.Error)
			}
			s1.close()

			// Second lifetime: recover from the store alone. -store mem has
			// no medium to reopen: every boot starts empty.
			s2 := bootServer(t, cfg)
			if kind == "mem" {
				if s2.recovered != (replayStats{}) || s2.backend.Len() != 0 {
					t.Fatalf("a second -store mem daemon recovered %+v", s2.recovered)
				}
				return
			}
			// 2 ontologies + 2 registers + 1 deregister
			if want := (replayStats{applied: 5}); s2.recovered != want {
				t.Fatalf("replay found %+v, want %+v", s2.recovered, want)
			}
			resp := s2.handle(sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())})
			if !resp.OK || len(resp.Hits) != 1 || resp.Hits[0].Service != "MediaWorkstation" {
				t.Fatalf("query after recovery: %+v", resp)
			}
			if s2.backend.Len() != 2 { // workstation's two capabilities only
				t.Fatalf("capabilities after recovery = %d, want 2", s2.backend.Len())
			}
			// The version ledger recovered too: live workstation, withdrawn
			// transient with its history intact.
			s2.mu.Lock()
			ws := s2.serviceHistoryLocked("MediaWorkstation")
			tr := s2.serviceHistoryLocked("Transient")
			s2.mu.Unlock()
			if ws == nil || !ws.Live || len(ws.Versions) != 1 || ws.Versions[0].Version != 1 {
				t.Fatalf("workstation ledger after recovery: %+v", ws)
			}
			if tr == nil || tr.Live || len(tr.Versions) != 1 {
				t.Fatalf("transient ledger after recovery: %+v", tr)
			}
		})
	}
}

// legacyJournal renders records as an old sdpd wrote them: one JSON
// object per line, no header, no version marker.
func legacyJournal(t *testing.T, recs ...store.Record) []byte {
	t.Helper()
	var out []byte
	for _, rec := range recs {
		line, err := json.Marshal(struct {
			Op   store.Op `json:"op"`
			Doc  string   `json:"doc,omitempty"`
			Name string   `json:"name,omitempty"`
		}{rec.Op, rec.Doc, rec.Name})
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// TestStoreReplayTolerance carries the v1 journal contract forward onto
// the import path: junk lines are skipped with a count, a torn final
// line is reported, records the directory rejects are skipped at replay
// — and the journal itself is never modified.
func TestStoreReplayTolerance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.jsonl")
	content := `{"op":"add-ontology","doc":"<ontology uri=\"u\"><class name=\"A\"/></ontology>"}
not json at all
{"op":"register","doc":"garbage that will not parse"}
{"op":"unknown-op"}
{"op":"register","doc":"<service name=\"torn`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "state.bolt")
	stats, err := migrateStore(path, dst)
	if err != nil {
		t.Fatal(err)
	}
	// The nameless register folds away; the ontology and the unknown op
	// are carried over.
	if want := (store.MigrateStats{Replayed: 3, Skipped: 1, TornTail: true, Live: 2}); stats != want {
		t.Fatalf("import stats = %+v, want %+v", stats, want)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != content {
		t.Fatalf("import modified the journal: %q", after)
	}
	cfg := bareConfig()
	cfg.state = dst
	if got, want := bootServer(t, cfg).recovered, (replayStats{applied: 1, skipped: 1}); got != want {
		t.Fatalf("replay found %+v, want %+v", got, want)
	}
}

// TestOpenStoreRefusesLegacyJournal is the safety of dropping the
// JSON-lines backend: a daemon pointed at an old journal must not start
// over it, must say how to import it, and must leave it byte-for-byte
// alone — no header rewrite, no truncation of a torn last line.
func TestOpenStoreRefusesLegacyJournal(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"v1.jsonl": string(legacyJournal(t, store.Record{Op: store.OpRegister, Doc: "<service name=\"a\"/>"})) + `{"op":"regis`,
		"v2.jsonl": `{"format":"sdp-store","v":2}` + "\n" + `{"v":2,"op":"deregister","name":"x"}` + "\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := openStore("bolt", path, store.Options{})
		var corrupt *store.CorruptError
		if !errors.As(err, &corrupt) || !strings.Contains(err.Error(), "-migrate-store") {
			t.Fatalf("%s: openStore = %v, want a CorruptError naming -migrate-store", name, err)
		}
		if after, err := os.ReadFile(path); err != nil || string(after) != content {
			t.Fatalf("%s: refused journal was modified: %q", name, after)
		}
	}
	// The two values -store dropped fail validation, listing what is left.
	for _, kind := range []string{"auto", "jsonl", "nope"} {
		cfg := bareConfig()
		cfg.storeKind = kind
		_, err := cfg.validate()
		if err == nil || !strings.Contains(err.Error(), "bolt") || !strings.Contains(err.Error(), "mem") {
			t.Fatalf("-store %s: %v, want a refusal listing bolt and mem", kind, err)
		}
	}
}

// TestStoreReplayMissingFile: a missing state file is an empty history,
// not an error — first boot works.
func TestStoreReplayMissingFile(t *testing.T) {
	cfg := bareConfig()
	cfg.state = filepath.Join(t.TempDir(), "absent.bolt")
	if got := bootServer(t, cfg).recovered; got != (replayStats{}) {
		t.Fatalf("missing file: %+v", got)
	}
}

// TestAdvertisementVersioning pins the supersede contract: re-publishing
// a name bumps the server-assigned version, old versions stay listable,
// and deregistration withdraws without erasing history.
func TestAdvertisementVersioning(t *testing.T) {
	s := newTestServer(t)
	doc := mustDoc(t, profile.WorkstationService())
	resp := s.handle(sdpapi.Request{Op: "register", Doc: doc})
	if !resp.OK || resp.Version != 1 {
		t.Fatalf("first register: %+v", resp)
	}
	resp = s.handle(sdpapi.Request{Op: "register", Doc: doc})
	if !resp.OK || resp.Version != 2 {
		t.Fatalf("superseding register: %+v", resp)
	}
	s.mu.Lock()
	h := s.serviceHistoryLocked("MediaWorkstation")
	s.mu.Unlock()
	if h == nil || !h.Live || len(h.Versions) != 2 || h.Versions[0].Version != 1 || h.Versions[1].Version != 2 {
		t.Fatalf("ledger after supersede: %+v", h)
	}
	if resp := s.handle(sdpapi.Request{Op: "deregister", Name: "MediaWorkstation"}); !resp.OK {
		t.Fatalf("deregister: %s", resp.Error)
	}
	s.mu.Lock()
	h = s.serviceHistoryLocked("MediaWorkstation")
	s.mu.Unlock()
	if h == nil || h.Live || len(h.Versions) != 2 {
		t.Fatalf("ledger after withdraw: %+v", h)
	}
	// Re-publishing after withdrawal continues the version sequence.
	resp = s.handle(sdpapi.Request{Op: "register", Doc: doc})
	if !resp.OK || resp.Version != 3 {
		t.Fatalf("re-register after withdraw: %+v", resp)
	}
}

// TestListServicesPagination drives the cursor protocol over a registry
// bigger than one page.
func TestListServicesPagination(t *testing.T) {
	s := newTestServer(t)
	for i := 0; i < 7; i++ {
		svc := profile.WorkstationService()
		svc.Name = fmt.Sprintf("svc-%02d", i)
		if resp := s.handle(sdpapi.Request{Op: "register", Doc: mustDoc(t, svc)}); !resp.OK {
			t.Fatalf("register %d: %s", i, resp.Error)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var got []string
	cursor := ""
	pages := 0
	for {
		page := s.listServicesLocked(3, cursor)
		if page.Total != 7 {
			t.Fatalf("total = %d, want 7", page.Total)
		}
		for _, e := range page.Services {
			got = append(got, e.Name)
			if e.Version != 1 {
				t.Fatalf("entry %s version = %d", e.Name, e.Version)
			}
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if pages != 3 || len(got) != 7 {
		t.Fatalf("pages=%d entries=%d, want 3 pages of 7 total", pages, len(got))
	}
	for i, name := range got {
		if want := fmt.Sprintf("svc-%02d", i); name != want {
			t.Fatalf("entry %d = %s, want %s (sorted, no duplicates)", i, name, want)
		}
	}
}

// TestMigrateStoreCommand is the operator path end to end: a v1 journal
// written by the old daemon imports into a bolt store, and a daemon
// booting from the new store serves the same answers.
func TestMigrateStoreCommand(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "v1.jsonl")
	var recs []store.Record
	for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
		data, err := ontology.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, store.Record{Op: store.OpAddOntology, Doc: string(data)})
	}
	recs = append(recs, store.Record{Op: store.OpRegister, Doc: mustDoc(t, profile.WorkstationService())})
	if err := os.WriteFile(src, legacyJournal(t, recs...), 0o644); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(dir, "v2.bolt")
	stats, err := migrateStore(src, dst)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if stats.Replayed != 3 || stats.Live != 3 {
		t.Fatalf("stats = %+v", stats)
	}

	cfg := bareConfig()
	cfg.state = dst
	s2 := bootServer(t, cfg)
	if want := (replayStats{applied: 3}); s2.recovered != want {
		t.Fatalf("replay from migrated store: %+v", s2.recovered)
	}
	resp := s2.handle(sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())})
	if !resp.OK || len(resp.Hits) != 1 || resp.Hits[0].Service != "MediaWorkstation" {
		t.Fatalf("query after migration: %+v", resp)
	}

	// Guard rails: migrating onto a non-empty destination refuses.
	if _, err := migrateStore(src, dst); !errors.Is(err, store.ErrDestinationNotEmpty) {
		t.Fatalf("migration onto a non-empty destination = %v", err)
	}
	// A store that is already framed is not an import source.
	if _, err := migrateStore(dst, filepath.Join(dir, "again.bolt")); !errors.Is(err, store.ErrNotLegacy) {
		t.Fatalf("migration from a bolt store = %v", err)
	}
	// A missing source is an error, and creates neither file.
	absent, out := filepath.Join(dir, "absent.jsonl"), filepath.Join(dir, "out.bolt")
	if _, err := migrateStore(absent, out); err == nil {
		t.Fatal("migration from a missing journal succeeded")
	}
	for _, path := range []string{absent, out} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("failed migration left %s behind", path)
		}
	}
}

// TestListServicesExactlyFullFinalPage is the cursor off-by-one
// regression: when the listing length is a multiple of the page size, the
// final full page must still return a cursor, and the follow-up probe
// must come back empty and cursorless. Before the fix the last full page
// dropped the cursor, so a client could not distinguish "complete" from
// "truncated at a page boundary".
func TestListServicesExactlyFullFinalPage(t *testing.T) {
	s := newTestServer(t)
	for i := 0; i < 6; i++ {
		svc := profile.WorkstationService()
		svc.Name = fmt.Sprintf("svc-%02d", i)
		if resp := s.handle(sdpapi.Request{Op: "register", Doc: mustDoc(t, svc)}); !resp.OK {
			t.Fatalf("register %d: %s", i, resp.Error)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	page1 := s.listServicesLocked(3, "")
	if len(page1.Services) != 3 || page1.NextCursor != "svc-02" {
		t.Fatalf("page 1 = %+v", page1)
	}
	page2 := s.listServicesLocked(3, page1.NextCursor)
	if len(page2.Services) != 3 {
		t.Fatalf("page 2 = %+v", page2)
	}
	if page2.NextCursor != "svc-05" {
		t.Fatalf("exactly-full final page dropped its cursor: %+v", page2)
	}
	// The probe past the end terminates the listing unambiguously.
	page3 := s.listServicesLocked(3, page2.NextCursor)
	if len(page3.Services) != 0 || page3.NextCursor != "" {
		t.Fatalf("end-of-listing probe = %+v", page3)
	}
	// A short (not full) final page still ends without a cursor.
	short := s.listServicesLocked(4, "svc-03")
	if len(short.Services) != 2 || short.NextCursor != "" {
		t.Fatalf("short final page = %+v", short)
	}
	// And a page larger than the listing never returns a cursor.
	all := s.listServicesLocked(50, "")
	if len(all.Services) != 6 || all.NextCursor != "" {
		t.Fatalf("single-page listing = %+v", all)
	}
}

// TestBackgroundCompactor exercises -compact-every's loop: a register +
// deregister history folds to nothing, so one tick after a daemon boots
// onto it with the flag the raw log holds the ontologies only — without
// any request-path involvement.
func TestBackgroundCompactor(t *testing.T) {
	cfg := bareConfig()
	cfg.state = filepath.Join(t.TempDir(), "state.bolt")
	s := bootServer(t, cfg)
	for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
		data, err := ontology.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		if resp := s.handle(sdpapi.Request{Op: "add-ontology", Doc: string(data)}); !resp.OK {
			t.Fatalf("add-ontology: %s", resp.Error)
		}
	}
	if resp := s.handle(sdpapi.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())}); !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}
	if resp := s.handle(sdpapi.Request{Op: "deregister", Name: "MediaWorkstation"}); !resp.OK {
		t.Fatalf("deregister: %s", resp.Error)
	}
	records := func(s *server) int {
		n := 0
		stats, err := s.store.Replay(func(store.Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("replay: %v (stats %+v)", err, stats)
		}
		return n
	}
	// Raw history: 2 ontologies + register + deregister.
	if n := records(s); n != 4 {
		t.Fatalf("pre-compaction records = %d, want 4", n)
	}
	s.close()

	cfg.compactEvery = 5 * time.Millisecond
	s = bootServer(t, cfg)
	// The two ontologies survive folding.
	testutil.WaitFor(t, 5*time.Second, func() bool { return records(s) == 2 },
		"compactor never folded the log")
	// close joins the loop goroutine; a second close is a no-op.
	s.close()
	s.close()
}
