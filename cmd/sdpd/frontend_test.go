package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
)

// viaHTTP sends a typed request through the gateway endpoint that serves
// its op and decodes the reply; a refusal is rebuilt from the status line
// the way an HTTP client sees it (error text, no code).
func viaHTTP(t *testing.T, base string, req sdpapi.Request) sdpapi.Response {
	t.Helper()
	method, path, body := "GET", "", ""
	switch req.Op {
	case sdpapi.OpRegister:
		method, path, body = "POST", "/services", req.Doc
	case sdpapi.OpDeregister:
		method, path = "DELETE", "/services/"+req.Name
	case sdpapi.OpQuery:
		method, path, body = "POST", "/query", req.Doc
		if req.Trace {
			path += "?trace=1"
		}
	case sdpapi.OpAddOntology:
		method, path, body = "POST", "/ontologies", req.Doc
	case sdpapi.OpGetTable:
		path = "/tables?uri=" + req.Name
	default:
		path = "/" + req.Op
	}
	hresp, payload := do(t, method, base+path, body)
	if hresp.StatusCode >= 300 {
		return sdpapi.Response{Error: strings.TrimSpace(payload)}
	}
	var resp sdpapi.Response
	if err := json.Unmarshal([]byte(payload), &resp); err != nil {
		t.Fatalf("%s %s: reply %q: %v", method, path, payload, err)
	}
	return resp
}

// TestFrontEndsAgree: the same typed request yields the same Response
// whether it arrives as a datagram or through the gateway. Each front end
// gets its own identically loaded server so assigned versions line up.
func TestFrontEndsAgree(t *testing.T) {
	udp := serveUDP(t, newTestServer(t))
	ts, _ := newGatewayServer(t)
	for _, req := range []sdpapi.Request{
		{Op: sdpapi.OpRegister, Doc: mustDoc(t, profile.WorkstationService())},
		{Op: sdpapi.OpRegister, Doc: mustDoc(t, profile.WorkstationService())}, // supersedes: version 2
		{Op: sdpapi.OpRegister, Doc: "junk"},
		{Op: sdpapi.OpQuery, Doc: mustDoc(t, profile.PDAService())},
		{Op: sdpapi.OpQuery, Doc: "junk"},
		{Op: sdpapi.OpStats},
		{Op: sdpapi.OpTenants},
		{Op: sdpapi.OpPeers}, // refused: not federated
		{Op: sdpapi.OpGetTable, Name: profile.MediaOntologyURI},
		{Op: sdpapi.OpGetTable, Name: "http://nope"},
		{Op: sdpapi.OpDeregister, Name: "MediaWorkstation"},
		{Op: sdpapi.OpDeregister, Name: "MediaWorkstation"}, // refused: already gone
		{Op: sdpapi.OpAddOntology, Doc: "junk"},
	} {
		overUDP, err := udp.Do(req)
		if err != nil {
			t.Fatalf("%s over UDP: %v", req.Op, err)
		}
		overUDP.Code = "" // the gateway carries the code as the status line
		overHTTP := viaHTTP(t, ts.URL, req)
		if !reflect.DeepEqual(*overUDP, overHTTP) {
			t.Errorf("%s %.20q: front ends disagree\n udp: %+v\nhttp: %+v", req.Op, req.Doc+req.Name, *overUDP, overHTTP)
		}
	}
}

// TestOversizedReplyIsTyped: a reply too long for one datagram comes back
// as a too_large refusal at once — not as a write error the daemon logs
// while the client waits out its deadline — and counts as a request
// error; the same query over the gateway still returns every hit.
func TestOversizedReplyIsTyped(t *testing.T) {
	ts, s := newGatewayServer(t)
	const services = 400
	for i := 0; i < services; i++ {
		svc := profile.WorkstationService()
		svc.Name = fmt.Sprintf("MediaWorkstation-%04d-%s", i, strings.Repeat("x", 80))
		if resp := s.handle(sdpapi.Request{Op: sdpapi.OpRegister, Doc: mustDoc(t, svc)}); !resp.OK {
			t.Fatalf("register %d: %s", i, resp.Error)
		}
	}
	query := sdpapi.Request{Op: sdpapi.OpQuery, Doc: mustDoc(t, profile.PDAService())}

	errorsBefore := requestErrorsTotal.Value()
	resp, err := serveUDP(t, s).Do(query)
	if err != nil {
		t.Fatalf("oversized reply left the client without an answer: %v", err)
	}
	if resp.OK || resp.Code != sdpapi.CodeTooLarge || !strings.Contains(resp.Error, "use the HTTP gateway") {
		t.Fatalf("reply = %+v, want a too_large refusal naming the gateway", resp)
	}
	if got := requestErrorsTotal.Value() - errorsBefore; got != 1 {
		t.Errorf("request errors advanced by %d, want 1", got)
	}
	if httpStatus(resp.Code) != http.StatusRequestEntityTooLarge {
		t.Errorf("too_large maps to HTTP %d", httpStatus(resp.Code))
	}

	if over := viaHTTP(t, ts.URL, query); !over.OK || len(over.Hits) != services {
		t.Fatalf("POST /query returned ok=%v with %d hits, want all %d", over.OK, len(over.Hits), services)
	}
}

// FuzzHandleDatagram: whatever bytes arrive on the UDP port, the daemon
// answers — no panic, a reply that is either a success or carries a code,
// and exactly one request on the counter.
func FuzzHandleDatagram(f *testing.F) {
	workstation, pda := mustDoc(f, profile.WorkstationService()), mustDoc(f, profile.PDAService())
	for _, req := range []sdpapi.Request{
		{Op: sdpapi.OpRegister, Doc: workstation},
		{Op: sdpapi.OpDeregister, Name: "MediaWorkstation"},
		{Op: sdpapi.OpQuery, Doc: pda, Trace: true},
		{Op: sdpapi.OpAddOntology, Doc: "<ontology/>"},
		{Op: sdpapi.OpGetTable, Name: profile.MediaOntologyURI},
		{Op: sdpapi.OpStats, Token: "sdp1.forged.token"},
		{Op: sdpapi.OpPeers},
		{Op: sdpapi.OpTenants},
		{Op: sdpapi.OpQuery, Doc: strings.Repeat("<", 64*1024)},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"op":7,"doc":["not","a","string"],"trace":"yes"}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	s := newTestServer(f)
	f.Fuzz(func(t *testing.T, datagram []byte) {
		before := requestsTotal.Value()
		resp := s.handleDatagram(datagram)
		if !resp.OK && resp.Code == "" {
			t.Errorf("refusal without a code: %+v", resp)
		}
		if got := requestsTotal.Value() - before; got != 1 {
			t.Errorf("requests advanced by %d, want 1", got)
		}
		if _, err := encodeReply(resp); err != nil {
			t.Errorf("reply does not encode: %v", err)
		}
	})
}
