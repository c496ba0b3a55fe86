package discovery

import (
	"sariadne/internal/telemetry"
	"sariadne/internal/transport"
)

// Wire messages of the discovery protocol. Service and request documents
// travel as serialized XML ([]byte) so that the parse costs the paper
// measures (Figures 7 and 8) occur where they would in a real deployment:
// at the receiving directory.

// RegisterRequest publishes a service advertisement at a directory.
type RegisterRequest struct {
	ID  uint64
	Doc []byte
}

// RegisterReply acknowledges a registration or a withdrawal.
type RegisterReply struct {
	ID  uint64
	Err string
	// Service is the name the directory stored the advertisement under: it
	// parsed the document, so the publisher need not. Empty on a rejection,
	// on a withdrawal's reply and from a build that predates the field,
	// whose body — like this build's when it is empty — does not carry it.
	Service string `json:",omitempty"`
}

// DeregisterRequest withdraws a service by name.
type DeregisterRequest struct {
	ID      uint64
	Service string
}

// QueryRequest asks a directory to resolve a request document.
type QueryRequest struct {
	ID uint64
	// Origin is the client node awaiting the final answer.
	Origin transport.Addr
	// Forwarded marks directory-to-directory hops; forwarded queries are
	// answered locally only (no second-level fan-out).
	Forwarded bool
	// Trace, when non-zero, asks every directory touching the query to
	// record hop-level spans that travel back inside QueryReply.
	Trace uint64
	Doc   []byte
}

// QueryReply carries hits back. For forwarded queries the replying
// directory sends it to the forwarding directory, which aggregates and
// relays to the origin. Directories answer every forwarded QueryRequest
// they receive, including retransmitted duplicates — re-answering is the
// recovery path for lost replies, and the aggregator deduplicates.
type QueryReply struct {
	ID      uint64
	From    transport.Addr
	Partial bool // true for peer replies consumed by the aggregator
	Hits    []Hit
	// Unreachable lists peer directories the aggregator gave up on after
	// exhausting retries; a non-empty list marks the result as possibly
	// incomplete (graceful degradation instead of failing closed).
	Unreachable []transport.Addr
	// Spans carries the hop-level trace for traced queries (empty
	// otherwise); aggregators merge partial spans into the final reply.
	Spans []telemetry.Span
	Err   string
}

// ForwardAck is sent immediately by a directory receiving a forwarded
// query, before the (possibly slow) match runs. It tells the aggregator
// the peer is alive — keeping it off the eviction count — but
// does not stop retransmissions: only a QueryReply does, so a lost reply
// is recovered by the duplicate request provoking a re-answer.
type ForwardAck struct {
	ID   uint64
	From transport.Addr
}

// RepublishSolicit is broadcast by a node that just won a directory
// election. Members whose current directory is the sender re-register
// their published services even if they believe them already registered
// there — the recovery path for a directory that crashed, lost its store,
// and was re-elected under the same identity.
type RepublishSolicit struct {
	From transport.Addr
}

// DirectoryAnnounce advertises a (new) directory to the directory
// backbone; receivers respond with their summary.
type DirectoryAnnounce struct {
	From transport.Addr
}

// SummaryPush carries a directory's Bloom filter to a peer (Section 4's
// exchange of directory content summaries).
type SummaryPush struct {
	From   transport.Addr
	Filter []byte // bloom.Filter wire form
	Count  int    // number of stored advertisements, for diagnostics
}

// SummaryRequest asks a peer directory for a fresh Bloom summary; sent
// reactively when too many Bloom-selected forwards to that peer come back
// empty (stale-summary detection, Section 4).
type SummaryRequest struct {
	From transport.Addr
}
