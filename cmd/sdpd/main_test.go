package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/discovery"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
	"sariadne/internal/transport"
)

// bareConfig is what `sdpd` with no flags boots from, sampling off: the
// sampler snapshots the process-wide metric registry into a history, which
// the tests that want one ask for.
func bareConfig() config {
	cfg, _ := boundFlags()
	cfg.listen, cfg.sampleEvery = "127.0.0.1:0", 0
	return *cfg
}

// testConfig is bareConfig plus the media and servers ontologies as
// -ontology files.
func testConfig(t testing.TB) config {
	t.Helper()
	cfg := bareConfig()
	for i, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
		data, err := ontology.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("ontology%d.xml", i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg.ontologies = append(cfg.ontologies, path)
	}
	return cfg
}

// bootServer boots a daemon from cfg the way main does — validated first,
// so a config main would refuse fails the test — and closes it with the
// test.
func bootServer(t testing.TB, cfg config) *server {
	t.Helper()
	if _, err := cfg.validate(); err != nil {
		t.Fatalf("config refused: %v", err)
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s
}

func newTestServer(t testing.TB) *server {
	t.Helper()
	return bootServer(t, testConfig(t))
}

// partialResolver makes every answer of the daemon's resolver report the
// given peers unreachable.
func partialResolver(unreachable ...transport.Addr) func(resolver) resolver {
	return func(local resolver) resolver {
		return func(doc []byte, traced bool) (discovery.Result, error) {
			res, err := local(doc, traced)
			res.Unreachable = append(res.Unreachable, unreachable...)
			return res, err
		}
	}
}

func mustDoc(t testing.TB, svc *profile.Service) string {
	t.Helper()
	doc, err := profile.Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

func TestHandleRegisterQueryDeregister(t *testing.T) {
	s := newTestServer(t)

	resp := s.handle(sdpapi.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())})
	if !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}

	resp = s.handle(sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())})
	if !resp.OK || len(resp.Hits) != 1 || resp.Hits[0].Distance != 3 {
		t.Fatalf("query: %+v", resp)
	}

	resp = s.handle(sdpapi.Request{Op: "stats"})
	if !resp.OK || resp.Stats.Capabilities != 2 || len(resp.Stats.Ontologies) != 2 {
		t.Fatalf("stats: %+v", resp)
	}

	resp = s.handle(sdpapi.Request{Op: "deregister", Name: "MediaWorkstation"})
	if !resp.OK {
		t.Fatalf("deregister: %s", resp.Error)
	}
	resp = s.handle(sdpapi.Request{Op: "deregister", Name: "MediaWorkstation"})
	if resp.OK {
		t.Fatal("double deregister succeeded")
	}
	resp = s.handle(sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())})
	if !resp.OK || len(resp.Hits) != 0 {
		t.Fatalf("query after deregister: %+v", resp)
	}
}

// TestHandleQueryPartialMarker: when the resolver reports degraded
// backbone coverage, the UDP reply carries the completeness marker
// alongside the usable hits instead of hiding the gap.
func TestHandleQueryPartialMarker(t *testing.T) {
	cfg := testConfig(t)
	cfg.wrapResolve = partialResolver("n4", "n9")
	s := bootServer(t, cfg)
	resp := s.handle(sdpapi.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())})
	if !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}

	resp = s.handle(sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())})
	if !resp.OK || len(resp.Hits) != 1 {
		t.Fatalf("query: %+v", resp)
	}
	if !resp.Partial || len(resp.Unreachable) != 2 || resp.Unreachable[0] != "n4" {
		t.Fatalf("completeness marker lost: %+v", resp)
	}
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"partial":true`, `"unreachable":["n4","n9"]`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("wire reply %s missing %s", data, want)
		}
	}
}

func TestHandleErrors(t *testing.T) {
	s := newTestServer(t)
	if resp := s.handleDatagram([]byte("{nope")); resp.OK {
		t.Error("malformed json accepted")
	}
	for name, req := range map[string]sdpapi.Request{
		"unknown op":       {Op: "fly"},
		"bad register doc": {Op: "register", Doc: "junk"},
		"bad query doc":    {Op: "query", Doc: "junk"},
		"bad ontology":     {Op: "add-ontology", Doc: "junk"},
	} {
		if resp := s.handle(req); resp.OK {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestNewServerBadFile(t *testing.T) {
	cfg := bareConfig()
	cfg.ontologies = stringList{"/nonexistent/ontology.xml"}
	if _, err := newServer(cfg); err == nil {
		t.Fatal("accepted missing ontology file")
	}
}

// serveUDP runs the UDP front end on a loopback socket and returns a
// client for it.
func serveUDP(t *testing.T, s *server) sdpapi.Client {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go s.serve(conn)
	return sdpapi.Client{Addr: conn.LocalAddr().String(), Timeout: 2 * time.Second}
}

func TestServeOverUDP(t *testing.T) {
	client := serveUDP(t, newTestServer(t))
	resp, err := client.Do(sdpapi.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Version != 1 {
		t.Fatalf("reply = %+v", resp)
	}
}

func TestStringListFlag(t *testing.T) {
	var l stringList
	if err := l.Set("a.xml"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("b.xml"); err != nil {
		t.Fatal(err)
	}
	if got := l.String(); got != "a.xml,b.xml" {
		t.Fatalf("String = %q", got)
	}
}

func TestHandleGetTable(t *testing.T) {
	s := newTestServer(t)
	resp := s.handle(sdpapi.Request{Op: "get-table", Name: profile.MediaOntologyURI})
	if !resp.OK || len(resp.Table) == 0 {
		t.Fatalf("get-table: %+v", resp)
	}
	table, err := codes.UnmarshalTable(resp.Table)
	if err != nil {
		t.Fatalf("returned table does not parse: %v", err)
	}
	if !table.Subsumes("Resource", "Movie") {
		t.Fatal("shipped table lost subsumption")
	}
	if resp := s.handle(sdpapi.Request{Op: "get-table", Name: "http://nope"}); resp.OK {
		t.Fatal("get-table for unknown ontology succeeded")
	}
}
