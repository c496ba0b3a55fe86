package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"sariadne/internal/discovery"
	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
	"sariadne/internal/store"
	"sariadne/internal/store/memstore"
)

// These tests characterise what server.mu serialises today: every op, a
// query included, waits for the one in progress, and the listing endpoints,
// which read the directory, wait for none. They count completions and read
// goroutine stacks, never the clock, so they say the same on any host. A
// daemon that stops taking mu in its read ops flips the first two.

// blockedOnMu counts the goroutines waiting for server.mu inside process.
func blockedOnMu() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("Mutex).Lock")) && bytes.Contains(g, []byte("(*server).process(")) {
			n++
		}
	}
	return n
}

// handleAll runs every request on a goroutine of its own and reports each
// op on done as it completes.
func handleAll(s *server, done chan<- string, reqs ...sdpapi.Request) {
	for _, req := range reqs {
		go func() {
			s.handle(req)
			done <- req.Op
		}()
	}
}

// awaitBlocked returns once n ops wait for server.mu, and fails the test
// if one of them completes first.
func awaitBlocked(t *testing.T, n int, done <-chan string) {
	t.Helper()
	for blockedOnMu() < n {
		select {
		case op := <-done:
			t.Fatalf("%s completed while another op held the daemon", op)
		default:
			runtime.Gosched()
		}
	}
}

// TestQueryWaitsForAQuery: while one query is parked inside the resolver,
// a second query, a stats and a get-table all wait, and all complete once
// it is released.
func TestQueryWaitsForAQuery(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	cfg := testConfig(t)
	cfg.wrapResolve = func(next resolver) resolver {
		first := true // read and written under server.mu, like every query
		return func(doc []byte, traced bool) (discovery.Result, error) {
			if first {
				first = false
				close(parked)
				<-release
			}
			return next(doc, traced)
		}
	}
	s := bootServer(t, cfg)
	if resp := s.handle(sdpapi.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())}); !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}

	query := sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())}
	done := make(chan string, 4)
	handleAll(s, done, query)
	<-parked
	handleAll(s, done, query, sdpapi.Request{Op: "stats"}, sdpapi.Request{Op: "get-table", Name: profile.MediaOntologyURI})
	awaitBlocked(t, 3, done)
	if len(done) != 0 {
		t.Fatalf("%d ops completed while a query was parked", len(done))
	}
	close(release)
	for range 4 {
		<-done
	}
}

// blockingStore is a store whose appends wait for release once entered is
// armed.
type blockingStore struct {
	store.Store
	entered chan struct{} // written under server.mu
	release chan struct{}
}

func (b *blockingStore) Append(rec store.Record) error {
	if b.entered != nil {
		close(b.entered)
		b.entered = nil
		<-b.release
	}
	return b.Store.Append(rec)
}

// TestQueryWaitsForAnAppend: a query sent while a publish's append is
// blocked waits for it, and then sees what was published.
func TestQueryWaitsForAnAppend(t *testing.T) {
	entered := make(chan struct{})
	st := &blockingStore{Store: memstore.New(), entered: entered, release: make(chan struct{})}
	cfg := testConfig(t)
	cfg.store = st
	s := bootServer(t, cfg)

	done := make(chan string, 1)
	handleAll(s, done, sdpapi.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())})
	<-entered
	answered := make(chan sdpapi.Response, 1)
	go func() { answered <- s.handle(sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())}) }()
	for blockedOnMu() < 1 {
		select {
		case <-answered:
			t.Fatal("the query completed while a publish's append was blocked")
		default:
			runtime.Gosched()
		}
	}
	close(st.release)
	if op := <-done; op != "register" {
		t.Fatalf("completed %s, want the register", op)
	}
	if resp := <-answered; !resp.OK || len(resp.Hits) != 1 {
		t.Fatalf("query after the append: %+v", resp)
	}
}

// waitingForALock reports whether a goroutine running fn waits for a mutex.
func waitingForALock(fn string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("SemacquireMutex")) && bytes.Contains(g, []byte(fn)) {
			return true
		}
	}
	return false
}

// TestListingDoesNotWaitForAnAppend: the two listing endpoints read the
// directory, not the daemon under mu. While a re-publish is parked in its
// append, GET /services and GET /services/{name} complete and show the
// version before it; once the publish is acknowledged both show its version.
func TestListingDoesNotWaitForAnAppend(t *testing.T) {
	st := &blockingStore{Store: memstore.New(), release: make(chan struct{})}
	cfg := testConfig(t)
	cfg.store = st
	s := bootServer(t, cfg)
	doc := namedDoc(t, "alice/ws")
	if resp := s.handle(sdpapi.Request{Op: "register", Doc: doc}); !resp.OK || resp.Version != 1 {
		t.Fatalf("register: %+v", resp)
	}

	entered := make(chan struct{})
	st.entered = entered
	done := make(chan string, 1)
	handleAll(s, done, sdpapi.Request{Op: "register", Doc: doc})
	<-entered
	released := false
	release := func() {
		if !released {
			released = true
			close(st.release)
		}
	}
	defer release()

	get := func(path string) <-chan *httptest.ResponseRecorder {
		out := make(chan *httptest.ResponseRecorder, 1)
		go func() { out <- serveInProcess(s, http.MethodGet, path, "", "") }()
		return out
	}
	listing, history := get("/services"), get("/services/alice%2Fws")
	var page servicesPage
	var h advertHistory
	for completed := 0; completed < 2; {
		select {
		case rec := <-listing:
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				t.Fatalf("GET /services = %d: %s", rec.Code, rec.Body)
			}
			completed++
		case rec := <-history:
			if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
				t.Fatalf("GET /services/alice%%2Fws = %d: %s", rec.Code, rec.Body)
			}
			completed++
		default:
			if waitingForALock("(*httpGateway).getService") {
				release()
				t.Fatal("a listing waited for the publish parked in its append")
			}
			runtime.Gosched()
		}
	}
	if len(page.Services) != 1 || page.Services[0] != (serviceEntry{Name: "alice/ws", Version: 1}) ||
		!h.Live || len(h.Versions) != 1 || h.Versions[0].Version != 1 {
		t.Fatalf("while the re-publish is parked: listing %+v, history %+v; want version 1", page, h)
	}
	if len(done) != 0 {
		t.Fatal("the re-publish completed while its append was blocked")
	}

	release()
	if op := <-done; op != "register" {
		t.Fatalf("completed %s, want the register", op)
	}
	if page := pageOf(t, s, "", 10, ""); len(page.Services) != 1 || page.Services[0].Version != 2 {
		t.Fatalf("listing after the acknowledged re-publish: %+v", page)
	}
	if h := historyOf(t, s, "", "alice/ws"); h == nil || len(h.Versions) != 2 || h.Versions[1].Version != 2 {
		t.Fatalf("history after the acknowledged re-publish: %+v", h)
	}
}
