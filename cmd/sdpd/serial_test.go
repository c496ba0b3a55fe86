package main

import (
	"bytes"
	"runtime"
	"testing"

	"sariadne/internal/discovery"
	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
	"sariadne/internal/store"
	"sariadne/internal/store/memstore"
)

// These tests characterise what server.mu serialises today: every op, a
// query included, waits for the one in progress. They count completions
// and read goroutine stacks, never the clock, so they say the same on any
// host. A daemon that stops taking mu in its read ops flips them.

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
