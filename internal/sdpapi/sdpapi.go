// Package sdpapi is the sdpd client protocol, written down once: the
// request and reply formats, the op names and error codes, the datagram
// size limit and the UDP client. The daemon's front ends (cmd/sdpd) decode
// into and encode from these types, and every client — sdpctl, sdpload's
// live driver, the smoke commands — sends through Client, so the two sides
// cannot drift apart.
//
// Protocol (one JSON object per datagram):
//
//	{"op":"register", "doc":"<service .../>"}
//	{"op":"deregister", "name":"MediaWorkstation"}
//	{"op":"query", "doc":"<service ...><required .../></service>"}
//	{"op":"add-ontology", "doc":"<ontology .../>"}
//	{"op":"get-table", "name":"<ontology uri>"}
//	{"op":"stats"}
//	{"op":"peers"}
//	{"op":"tenants"}
//
// With admission enabled (-auth-tokens and/or -auth-secret) every request
// additionally carries {"token":"..."}; denials come back with code
// "unauthenticated", "forbidden" or "rate_limited".
//
// Every reply is {"ok":bool, "error":string, "code":string, "hits":[...],
// "stats":{...}}; failed requests carry a machine-readable code alongside
// the human-readable error text. Query replies additionally carry a
// completeness marker: {"partial":true, "unreachable":["n4"]} means the
// answer is usable but some backbone directories never responded, so a
// better answer may exist (the paper's graceful-degradation contract).
//
// The HTTP gateway serves the same Response as the body of every
// dispatched op, so an HTTP client decodes into the same type.
package sdpapi

import (
	"encoding/json"
	"fmt"
	"net"
	"time"

	"sariadne/internal/discovery"
	"sariadne/internal/telemetry"
	"sariadne/internal/tenant"
	"sariadne/internal/transport"
)

// Op names carried in Request.Op.
const (
	OpRegister    = "register"
	OpDeregister  = "deregister"
	OpQuery       = "query"
	OpAddOntology = "add-ontology"
	OpGetTable    = "get-table"
	OpStats       = "stats"
	OpPeers       = "peers"
	OpTenants     = "tenants"
)

// Machine-readable error codes carried in failed responses. The HTTP
// gateway maps them to status codes; UDP clients can branch on them
// without parsing English. Admission refusals reuse the tenant package's
// codes (tenant.CodeUnauthenticated / CodeForbidden / CodeRateLimited),
// which the gateway maps to 401 / 403 / 429.
const (
	CodeBadRequest = "bad_request" // malformed or semantically invalid input
	CodeNotFound   = "not_found"   // named service/ontology does not exist
	CodeInternal   = "internal"    // server-side failure (journal, encoding)
	CodeTooLarge   = "too_large"   // reply does not fit one datagram; use the HTTP gateway
)

// MaxDatagram is the largest request or reply the UDP front end carries:
// the biggest payload an IPv4 UDP datagram holds (65535 minus the IP and
// UDP headers). A longer reply is refused with CodeTooLarge.
const MaxDatagram = 65507

// Request is the wire format of client commands.
type Request struct {
	Op   string `json:"op"`
	Doc  string `json:"doc,omitempty"`
	Name string `json:"name,omitempty"`
	// Token is the caller's bearer credential, consulted when the daemon
	// runs with admission enabled (-auth-tokens / -auth-secret). The HTTP
	// gateway fills it from the Authorization header.
	Token string `json:"token,omitempty"`
	// Trace asks for a hop-level trace of a query op: the reply carries
	// the span tree inline and the trace is retained in the flight
	// recorder for later retrieval via GET /traces/{id}.
	Trace bool `json:"trace,omitempty"`
}

// Response is the wire format of server replies. Partial and Unreachable
// mirror discovery.Result: when the resolver could not reach every
// backbone directory the hits are still served, flagged as a lower bound.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// Version is the advertisement version the directory assigned to a
	// successful register: re-publishing a name supersedes the previous
	// version, which stays listable via GET /services/{name}.
	Version     uint64           `json:"version,omitempty"`
	Hits        []discovery.Hit  `json:"hits,omitempty"`
	Partial     bool             `json:"partial,omitempty"`
	Unreachable []transport.Addr `json:"unreachable,omitempty"`
	// TraceID names the query's retained trace (explicitly requested or
	// picked up by the sampler); fetch it later from GET /traces/{id}.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Spans is the hop-level trace, inline — only when the request asked
	// for tracing (sampled queries just carry the ID).
	Spans   []telemetry.Span `json:"spans,omitempty"`
	Peers   []Peer           `json:"peers,omitempty"`
	Stats   *Stats           `json:"stats,omitempty"`
	Table   json.RawMessage  `json:"table,omitempty"`
	Tenants *Tenants         `json:"tenants,omitempty"`
}

// Err is nil for a successful reply and the server's refusal otherwise.
func (r *Response) Err() error {
	if r.OK {
		return nil
	}
	return fmt.Errorf("server error: %s (%s)", r.Error, r.Code)
}

// Stats is the body of a "stats" reply.
type Stats struct {
	Capabilities int      `json:"capabilities"`
	Ontologies   []string `json:"ontologies"`
}

// Peer is one backbone peer in a "peers" reply: the discovery layer's
// protocol view (summary freshness, give-up count) joined with the
// transport layer's socket stats when the substrate tracks them.
type Peer struct {
	discovery.PeerInfo
	Transport *transport.Peer `json:"transport,omitempty"`
}

// Tenants is the admission table behind GET /tenants and the "tenants"
// op: enforcement mode, configured limits, one row per tenant.
type Tenants struct {
	Enforcing bool            `json:"enforcing"`
	Auth      string          `json:"auth"`
	Limits    tenant.Limits   `json:"limits"`
	Tenants   []tenant.Status `json:"tenants"`
}

// Client sends requests to one daemon's UDP port. Every Do dials its own
// ephemeral socket, so concurrent callers cannot cross replies.
type Client struct {
	Addr    string
	Timeout time.Duration
	// Token is sent with every request that carries none of its own.
	Token string
}

// Do sends one request and waits for its reply. The error reports a
// transport or decoding failure; a refusal by the daemon comes back as a
// Response with OK false (see Response.Err).
func (c Client) Do(req Request) (*Response, error) {
	if req.Token == "" {
		req.Token = c.Token
	}
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("udp", c.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(c.Timeout)); err != nil {
		return nil, err
	}
	if _, err := conn.Write(data); err != nil {
		return nil, err
	}
	buf := make([]byte, MaxDatagram)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, fmt.Errorf("waiting for reply: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(buf[:n], &resp); err != nil {
		return nil, fmt.Errorf("malformed reply: %w", err)
	}
	return &resp, nil
}
