package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
	"sariadne/internal/store"
	"sariadne/internal/store/memstore"
	"sariadne/internal/tenant"
)

// failingStore is a store whose Append fails while fail is set.
type failingStore struct {
	store.Store
	fail bool
}

var errDiskFull = errors.New("injected append failure")

func (f *failingStore) Append(rec store.Record) error {
	if f.fail {
		return errDiskFull
	}
	return f.Store.Append(rec)
}

// TestFailedAppendChangesNothing: the daemon persists a mutation before
// it applies it, so a publish, a withdrawal or an ontology upload whose
// append fails reports `internal` and leaves memory where disk is — the
// directory, the listing, the version ledger, the tenant's live count and
// the set of encoded ontologies all unchanged, and the version number not
// consumed.
func TestFailedAppendChangesNothing(t *testing.T) {
	st := &failingStore{Store: memstore.New()}
	cfg := enforcingConfig(t, tenant.Config{})
	cfg.store = st
	s := bootServer(t, cfg)
	ts := httptest.NewServer(newHTTPGateway(s, false))
	t.Cleanup(ts.Close)

	// state is everything a client or an operator can observe of the
	// directory's content.
	type state struct {
		Hits       int
		Listing    string
		History    *advertHistory
		Live       int
		Ontologies []string
	}
	observe := func() state {
		t.Helper()
		q := s.handle(sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService()), Token: "ta"})
		if !q.OK {
			t.Fatalf("query: %+v", q)
		}
		req, err := http.NewRequest("GET", ts.URL+"/services", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer ta")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		listing, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /services = %d, %v", resp.StatusCode, err)
		}
		s.mu.Lock()
		h := s.serviceHistoryLocked("alice/ws")
		s.mu.Unlock()
		live := 0
		for _, row := range s.gate.Tenants() {
			if row.Tenant == "alice" {
				live = row.LiveServices
			}
		}
		stats := s.handle(sdpapi.Request{Op: "stats", Token: "ta"})
		if !stats.OK {
			t.Fatalf("stats: %+v", stats)
		}
		return state{Hits: len(q.Hits), Listing: string(listing), History: h, Live: live, Ontologies: stats.Stats.Ontologies}
	}
	register := func() sdpapi.Response {
		return s.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "alice/ws"), Token: "ta"})
	}
	deregister := func() sdpapi.Response {
		return s.handle(sdpapi.Request{Op: "deregister", Name: "alice/ws", Token: "ta"})
	}
	unchanged := func(what string, before state) {
		t.Helper()
		if after := observe(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s changed the daemon's state:\n before %+v\n after  %+v", what, before, after)
		}
	}

	// A first publish that cannot be persisted leaves an empty directory.
	empty := observe()
	if empty.Hits != 0 || empty.History != nil || empty.Live != 0 {
		t.Fatalf("fresh daemon: %+v", empty)
	}
	st.fail = true
	if resp := register(); resp.OK || resp.Code != sdpapi.CodeInternal || !strings.Contains(resp.Error, errDiskFull.Error()) {
		t.Fatalf("register with a failing store: %+v", resp)
	}
	unchanged("a failed first publish", empty)

	// An ontology upload that cannot be persisted registers no table: were
	// it registered, publishes against it would be accepted and persisted,
	// and the next replay — which has no ontology record — would drop them.
	const newOntology = `<ontology uri="http://new.example/ont" version="1"><class name="Thing"/></ontology>`
	upload := func() sdpapi.Response {
		return s.handle(sdpapi.Request{Op: "add-ontology", Doc: newOntology, Token: "ta"})
	}
	if resp := upload(); resp.OK || resp.Code != sdpapi.CodeInternal {
		t.Fatalf("add-ontology with a failing store: %+v", resp)
	}
	unchanged("a failed ontology upload", empty)
	if _, ok := s.reg.Resolve("http://new.example/ont"); ok {
		t.Fatal("a failed ontology upload left its table registered")
	}

	// The next successful publish gets the version the failed one would have.
	st.fail = false
	if resp := upload(); !resp.OK {
		t.Fatalf("add-ontology after the failure: %+v", resp)
	}
	if got := observe(); len(got.Ontologies) != len(empty.Ontologies)+1 {
		t.Fatalf("ontologies after one upload: %v (before: %v)", got.Ontologies, empty.Ontologies)
	}
	if resp := register(); !resp.OK || resp.Version != 1 {
		t.Fatalf("register after the failure: %+v", resp)
	}
	published := observe()
	if published.Hits != 1 || published.Live != 1 || !strings.Contains(published.Listing, `"alice/ws"`) {
		t.Fatalf("after one publish: %+v", published)
	}

	// A superseding publish and a withdrawal that cannot be persisted both
	// leave version 1 live.
	st.fail = true
	if resp := register(); resp.OK || resp.Code != sdpapi.CodeInternal {
		t.Fatalf("superseding register with a failing store: %+v", resp)
	}
	unchanged("a failed superseding publish", published)
	if resp := deregister(); resp.OK || resp.Code != sdpapi.CodeInternal {
		t.Fatalf("deregister with a failing store: %+v", resp)
	}
	unchanged("a failed withdrawal", published)

	st.fail = false
	if resp := register(); !resp.OK || resp.Version != 2 {
		t.Fatalf("superseding register after the failures: %+v", resp)
	}
	if resp := deregister(); !resp.OK {
		t.Fatalf("deregister after the failures: %+v", resp)
	}
	if got := observe(); got.Hits != 0 || got.Live != 0 || got.History == nil || got.History.Live || len(got.History.Versions) != 2 {
		t.Fatalf("after withdrawal: %+v", got)
	}

	// What the store holds replays into the same state: one upload, two
	// publishes, one withdrawal, nothing of the four failed operations.
	var ops []string
	if _, err := st.Replay(func(rec store.Record) error {
		b, _ := json.Marshal([]any{rec.Op, rec.Name, rec.Version})
		ops = append(ops, string(b))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{`["add-ontology","",0]`, `["register","alice/ws",1]`, `["register","alice/ws",2]`, `["deregister","alice/ws",0]`}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("store holds %v, want %v", ops, want)
	}
}

// TestLiveAndReplayAgree: a mutation reaches memory through one function
// whether it arrives from a client or from the store, so a history applied
// live and the same history replayed from the resulting store leave the
// same version ledger, the same number of capabilities and the same
// per-tenant live counts.
func TestLiveAndReplayAgree(t *testing.T) {
	cfg := enforcingConfig(t, tenant.Config{})
	cfg.state = filepath.Join(t.TempDir(), "state.bolt")
	live := bootServer(t, cfg)

	for i, step := range []struct {
		op, name, token string
		version         uint64
	}{
		{"register", "alice/a", "ta", 1},
		{"register", "alice/a", "ta", 2}, // supersede
		{"register", "alice/b", "ta", 1},
		{"register", "alice/c", "tr", 1}, // an admin publishing into alice's namespace
		{"register", "root/d", "tr", 1},
		{"deregister", "alice/a", "ta", 0},
		{"register", "alice/a", "ta", 3}, // re-publish a withdrawn name
		{"deregister", "alice/b", "tr", 0},
		{"deregister", "root/d", "tr", 0},
	} {
		req := sdpapi.Request{Op: step.op, Name: step.name, Token: step.token}
		if step.op == "register" {
			req.Doc = namedDoc(t, step.name)
		}
		if resp := live.handle(req); !resp.OK || resp.Version != step.version {
			t.Fatalf("step %d %s %s: %+v, want version %d", i, step.op, step.name, resp, step.version)
		}
	}

	live.close()
	replayed := bootServer(t, cfg)
	if want := (replayStats{applied: 9}); replayed.recovered != want {
		t.Fatalf("replay found %+v, want all 9 applied", replayed.recovered)
	}

	liveCounts := func(s *server) map[string]int {
		out := make(map[string]int)
		for _, row := range s.gate.Tenants() {
			if row.LiveServices != 0 {
				out[row.Tenant] = row.LiveServices
			}
		}
		return out
	}
	if want := map[string]int{"alice": 2}; !reflect.DeepEqual(liveCounts(live), want) {
		t.Fatalf("live tenant counts = %v, want %v", liveCounts(live), want)
	}
	if got, want := liveCounts(replayed), liveCounts(live); !reflect.DeepEqual(got, want) {
		t.Fatalf("tenant live counts: replayed %v, live %v", got, want)
	}
	if got, want := replayed.backend.Len(), live.backend.Len(); got != want || want == 0 {
		t.Fatalf("capabilities: replayed %d, live %d", got, want)
	}
	if !reflect.DeepEqual(replayed.adverts, live.adverts) {
		t.Fatalf("ledgers differ:\n replayed %+v\n live     %+v", replayed.adverts, live.adverts)
	}
	if l := live.adverts["alice/a"]; !l.live || len(l.versions) != 3 || live.adverts["alice/b"].live {
		t.Fatalf("ledger after the script: %+v", live.adverts)
	}
}

// ledgerOf renders a server's whole ledger as GET /services/{name} would
// serve it, name by name.
func ledgerOf(s *server) map[string]advertHistory {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]advertHistory, len(s.adverts))
	for name := range s.adverts {
		out[name] = *s.serviceHistoryLocked(name)
	}
	return out
}

// TestLedgerKeepsNumbersNotDocuments: the ledger lists every version
// number of a name and holds the document of the current version of a live
// name, and no other — superseding or withdrawing a name lets the old
// document go. The live ledger and the one replayed from the store agree
// on all of that; after a compaction the store itself holds only the
// current versions (store.Fold), and what it replays is the live ledger's
// live names with their current number and document.
func TestLedgerKeepsNumbersNotDocuments(t *testing.T) {
	cfg := testConfig(t)
	cfg.state = filepath.Join(t.TempDir(), "state")
	live := bootServer(t, cfg)

	// Every publication is a different document, so a kept one would show.
	docOf := func(name string, rev int) string {
		svc := profile.WorkstationService()
		svc.Name, svc.Provider = name, fmt.Sprintf("host-rev%d", rev)
		return mustDoc(t, svc)
	}
	for i, step := range []struct {
		op, name string
	}{
		{"register", "a"}, {"register", "a"}, {"register", "a"}, // superseded twice
		{"register", "b"}, {"deregister", "b"}, // withdrawn
		{"register", "c"}, {"deregister", "c"}, {"register", "c"}, // withdrawn and back
	} {
		req := sdpapi.Request{Op: step.op, Name: step.name}
		if step.op == "register" {
			req.Doc = docOf(step.name, i)
		}
		if resp := live.handle(req); !resp.OK {
			t.Fatalf("step %d %s %s: %+v", i, step.op, step.name, resp)
		}
	}
	want := map[string]advertHistory{
		"a": {Name: "a", Live: true, Versions: []advertVersion{{Version: 1}, {Version: 2}, {Version: 3, Doc: docOf("a", 2)}}},
		"b": {Name: "b", Live: false, Versions: []advertVersion{{Version: 1}}},
		"c": {Name: "c", Live: true, Versions: []advertVersion{{Version: 1}, {Version: 2, Doc: docOf("c", 7)}}},
	}
	if got := ledgerOf(live); !reflect.DeepEqual(got, want) {
		t.Fatalf("live ledger:\n got  %+v\n want %+v", got, want)
	}
	// The held document is the one the backend stores, not a second copy.
	live.mu.Lock()
	held, stored := live.adverts["a"].doc, live.backend.Documents()["a"]
	live.mu.Unlock()
	if held == "" || unsafe.StringData(held) != unsafe.StringData(stored) {
		t.Fatal("the ledger and the backend hold separate copies of the current document")
	}

	restart := func(old *server) *server {
		t.Helper()
		old.close()
		s := bootServer(t, cfg)
		if s.recovered.skipped != 0 || s.recovered.torn {
			t.Fatalf("replay: %+v", s.recovered)
		}
		return s
	}
	replayed := restart(live)
	if got := ledgerOf(replayed); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed ledger:\n got  %+v\n want %+v", got, want)
	}

	if err := replayed.store.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted := ledgerOf(restart(replayed))
	for name, h := range want {
		got, ok := compacted[name]
		if !h.Live {
			if ok {
				t.Errorf("%s: withdrawn, yet the compacted store replays %+v", name, got)
			}
			continue
		}
		current := h.Versions[len(h.Versions)-1]
		if !got.Live || !reflect.DeepEqual(got.Versions, []advertVersion{current}) {
			t.Errorf("%s: the compacted store replays %+v, want only the current version %d with its document", name, got, current.Version)
		}
	}
	if len(compacted) != 2 {
		t.Errorf("the compacted store replays %d names, want the 2 live ones", len(compacted))
	}
}
