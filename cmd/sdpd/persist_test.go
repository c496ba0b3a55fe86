package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

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
	t.Cleanup(func() { _ = st.Close() })
	s := enforcingServer(t, tenant.Config{})
	s.store = st
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
	st := memstore.New()
	t.Cleanup(func() { _ = st.Close() })
	live := enforcingServer(t, tenant.Config{})
	live.store = st

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

	replayed := enforcingServer(t, tenant.Config{})
	if applied, skipped, _, err := replayStore(st, replayed); err != nil || applied != 9 || skipped != 0 {
		t.Fatalf("replay applied %d, skipped %d, err %v; want all 9 applied", applied, skipped, err)
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
	if h := live.adverts["alice/a"]; !h.Live || len(h.Versions) != 3 || live.adverts["alice/b"].Live {
		t.Fatalf("ledger after the script: %+v", live.adverts)
	}
}
