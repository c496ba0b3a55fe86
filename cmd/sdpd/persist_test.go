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
// it applies it, so a publish or a withdrawal whose append fails reports
// `internal` and leaves memory where disk is — the directory, the
// listing, the version ledger and the tenant's live count all unchanged,
// and the version number not consumed.
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
		Hits    int
		Listing string
		History *advertHistory
		Live    int
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
		return state{Hits: len(q.Hits), Listing: string(listing), History: h, Live: live}
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

	// The next successful publish gets the version the failed one would have.
	st.fail = false
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

	// What the store holds replays into the same state: two publishes, one
	// withdrawal, nothing of the three failed operations.
	var ops []string
	if _, err := st.Replay(func(rec store.Record) error {
		if rec.Op != store.OpAddOntology {
			b, _ := json.Marshal([]any{rec.Op, rec.Name, rec.Version})
			ops = append(ops, string(b))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{`["register","alice/ws",1]`, `["register","alice/ws",2]`, `["deregister","alice/ws",0]`}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("store holds %v, want %v", ops, want)
	}
}
