package sdpapi

import (
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"sariadne/internal/discovery"
	"sariadne/internal/telemetry"
	"sariadne/internal/tenant"
	"sariadne/internal/transport"
)

// The golden documents pin the protocol's bytes: JSON field names
// (including discovery.Hit's untagged Go names), field order, omitempty
// behaviour and encoding/json's \u003c escaping of the XML documents. A
// daemon or client built from this package must keep talking to one built
// before it, so a diff here is a protocol change.
const (
	goldenRequest = `{"op":"query","doc":"\u003cservice/\u003e","name":"MediaWorkstation","token":"sdp1.t.s","trace":true}`

	goldenResponse = `{"ok":true,"error":"e","code":"c","version":7,` +
		`"hits":[{"Service":"MediaWorkstation","Capability":"PlayMovie","Provider":"ws-1","Distance":3,"For":"WatchMovie","Directory":"127.0.0.1:8475"}],` +
		`"partial":true,"unreachable":["127.0.0.1:8476"],"trace_id":9,` +
		`"spans":[{"trace":9,"node":"n1","event":"forward","peer":"n2","hits":1,"dur":80000,"seq":3,"time":"2026-01-02T03:04:05Z","reason":"r"}],` +
		`"peers":[{"addr":"127.0.0.1:8475","last_announce":"2026-01-02T03:04:05Z","failures":1,"has_summary":true,"entries":2,"hops":1,` +
		`"transport":{"addr":"127.0.0.1:8475","frames_sent":1,"frames_received":2,"bytes_sent":3,"bytes_received":4,"send_count":5,"send_nanos":6,"dial_count":7,"dial_nanos":8}}],` +
		`"stats":{"capabilities":2,"ontologies":["http://o"]},` +
		`"table":{"uri":"http://o"},` +
		`"tenants":{"enforcing":true,"auth":"hmac","limits":{"rate_per_sec":5,"burst":10},` +
		`"tenants":[{"tenant":"alice","live_services":1,"publishes_total":3,"publishes_this_minute":2,"rate_limited_total":4,"denied_total":1,"rate_tokens":1.5}]}}`
)

func populated() (Request, Response) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	req := Request{Op: OpQuery, Doc: "<service/>", Name: "MediaWorkstation", Token: "sdp1.t.s", Trace: true}
	resp := Response{
		OK: true, Error: "e", Code: "c", Version: 7,
		Hits: []discovery.Hit{{Service: "MediaWorkstation", Capability: "PlayMovie", Provider: "ws-1",
			Distance: 3, For: "WatchMovie", Directory: "127.0.0.1:8475"}},
		Partial: true, Unreachable: []transport.Addr{"127.0.0.1:8476"}, TraceID: 9,
		Spans: []telemetry.Span{{Trace: 9, Node: "n1", Event: telemetry.EventForward, Peer: "n2", Hits: 1,
			Dur: 80 * time.Microsecond, Seq: 3, Time: at, Reason: "r"}},
		Peers: []Peer{{
			PeerInfo: discovery.PeerInfo{Addr: "127.0.0.1:8475", LastAnnounce: at, Failures: 1, HasSummary: true, Entries: 2, Hops: 1},
			Transport: &transport.Peer{Addr: "127.0.0.1:8475", FramesSent: 1, FramesReceived: 2, BytesSent: 3, BytesReceived: 4,
				SendCount: 5, SendNanos: 6, DialCount: 7, DialNanos: 8},
		}},
		Stats: &Stats{Capabilities: 2, Ontologies: []string{"http://o"}},
		Table: json.RawMessage(`{"uri":"http://o"}`),
		Tenants: &Tenants{Enforcing: true, Auth: "hmac", Limits: tenant.Limits{RatePerSec: 5, Burst: 10},
			Tenants: []tenant.Status{{Tenant: "alice", LiveServices: 1, PublishesTotal: 3, PublishesThisMinute: 2,
				RateLimitedTotal: 4, DeniedTotal: 1, RateTokens: 1.5}}},
	}
	return req, resp
}

func TestWireGolden(t *testing.T) {
	req, resp := populated()
	for _, c := range []struct {
		name   string
		v      any
		golden string
		into   any
	}{
		{"request", req, goldenRequest, &Request{}},
		{"response", resp, goldenResponse, &Response{}},
	} {
		data, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != c.golden {
			t.Errorf("%s encodes as\n%s\nwant\n%s", c.name, data, c.golden)
		}
		if err := json.Unmarshal([]byte(c.golden), c.into); err != nil {
			t.Fatal(err)
		}
		if got := reflect.ValueOf(c.into).Elem().Interface(); !reflect.DeepEqual(got, c.v) {
			t.Errorf("%s decodes as\n%+v\nwant\n%+v", c.name, got, c.v)
		}
	}
}

// TestWireOmitsEmpty: the zero request is just its op and a bare success
// is {"ok":true}; a refusal still says "ok":false.
func TestWireOmitsEmpty(t *testing.T) {
	for want, v := range map[string]any{
		`{"op":"stats"}`: Request{Op: OpStats},
		`{"ok":true}`:    Response{OK: true},
		`{"ok":false,"error":"nope","code":"bad_request"}`: Response{Error: "nope", Code: CodeBadRequest},
	} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Errorf("%+v encodes as %s, want %s", v, data, want)
		}
	}
}

// TestClientDo drives the client against a loopback socket playing the
// daemon: the client's token fills a request that has none, a request's
// own token wins, and a refusal comes back as a Response, not an error.
func TestClientDo(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, MaxDatagram)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			var req Request
			reply := `{"ok":false,"error":"denied","code":"forbidden"}`
			if json.Unmarshal(buf[:n], &req) == nil && req.Token == "good" {
				reply = `{"ok":true,"version":2}`
			}
			if req.Op == "garbage" {
				reply = "{nope"
			}
			_, _ = conn.WriteToUDP([]byte(reply), peer)
		}
	}()
	defer func() { conn.Close(); <-done }()

	c := Client{Addr: conn.LocalAddr().String(), Timeout: 2 * time.Second, Token: "good"}
	resp, err := c.Do(Request{Op: OpRegister})
	if err != nil || !resp.OK || resp.Version != 2 || resp.Err() != nil {
		t.Fatalf("client token not sent: resp=%+v err=%v", resp, err)
	}
	resp, err = c.Do(Request{Op: OpRegister, Token: "bad"})
	if err != nil || resp.OK || resp.Code != tenant.CodeForbidden {
		t.Fatalf("request token did not win: resp=%+v err=%v", resp, err)
	}
	if err := resp.Err(); err == nil || !strings.Contains(err.Error(), "denied") || !strings.Contains(err.Error(), "forbidden") {
		t.Fatalf("Err() = %v, want the server's text and code", err)
	}
	if _, err := c.Do(Request{Op: "garbage"}); err == nil || !strings.Contains(err.Error(), "malformed reply") {
		t.Fatalf("garbage reply: err = %v", err)
	}

	silent, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	c = Client{Addr: silent.LocalAddr().String(), Timeout: 50 * time.Millisecond}
	if _, err := c.Do(Request{Op: OpStats}); err == nil || !strings.Contains(err.Error(), "waiting for reply") {
		t.Fatalf("silent daemon: err = %v, want a reply timeout", err)
	}
}
