// Package transport abstracts how S-Ariadne protocol messages move
// between nodes: addressing, unicast send, vicinity broadcast, an inbox
// channel, and shutdown. The discovery and election layers speak only
// this interface, so the same protocol code runs over three substrates:
//
//   - the in-memory simulator (internal/simnet), whose *Endpoint
//     satisfies Endpoint — every simulation and test keeps its
//     deterministic hop-limited semantics;
//   - UDP datagrams (NewUDP), one message per datagram, for real
//     federation of sdpd directories over loopback or a LAN;
//   - TCP streams (NewTCP), with connection reuse and per-peer write
//     queues, for payloads that outgrow a datagram (Bloom summary
//     pushes, RepublishSolicit bursts).
//
// The socket transports serialize payloads through a Codec — supplied by
// the protocol layer, so transport stays ignorant of message types and
// the discovery package stays ignorant of sockets — and wrap the encoded
// bytes in the version/length envelope of frame.go. Both keep one peer
// table (mesh.go). Every substrate carries only frames between different
// nodes: a node delivers to itself, and a send to an endpoint's own
// address is refused.
//
// Addr and Message are defined here and aliased by the simulator
// (simnet.NodeID, simnet.Message): the fields (From, To, Hops, Broadcast,
// Payload) are substrate-agnostic, and the simulator depends on the
// protocol's vocabulary, never the reverse, so a daemon links no
// simulator. Over socket transports an Addr is a dialable "host:port"
// string.
package transport

import "time"

// Addr identifies a protocol participant: a node name on the simulator,
// a dialable host:port on the socket transports.
type Addr string

// Message is one delivered payload with routing metadata. Socket
// transports deliver every frame with Hops 1 (the backbone mesh is one
// overlay hop wide); the simulator reports real path lengths.
type Message struct {
	// From is the originating node.
	From Addr
	// To is the destination (the receiving node for broadcasts).
	To Addr
	// Hops is the number of links the message traversed.
	Hops int
	// Broadcast marks messages delivered by hop-limited flooding.
	Broadcast bool
	// Payload is the protocol-level content.
	Payload any
}

// Codec serializes protocol payloads for the socket transports. The
// discovery package's wire codec implements it; injecting the codec here
// keeps transport free of protocol types (and of import cycles).
type Codec interface {
	// Encode turns one protocol message into a self-describing frame.
	Encode(payload any) ([]byte, error)
	// Decode parses a frame back into the concrete message value.
	Decode(frame []byte) (any, error)
}

// Endpoint is the sender/receiver surface the protocol layers consume.
// *simnet.Endpoint satisfies it as-is.
type Endpoint interface {
	// ID returns this endpoint's own address.
	ID() Addr
	// Send unicasts a payload. Delivery is best-effort: losses are the
	// protocol's problem (retries, leases), only addressing and shutdown
	// errors are reported. A send to the endpoint's own ID is refused.
	Send(to Addr, payload any) error
	// Broadcast floods a payload to the vicinity, up to ttl hops on the
	// simulator; socket transports send to every known peer (the overlay
	// backbone is fully meshed, so ttl is accepted but moot) and return
	// how many peers were addressed.
	Broadcast(ttl int, payload any) (int, error)
	// Inbox is the delivery channel; it closes when the transport shuts
	// down.
	Inbox() <-chan Message
}

// Transport is an Endpoint whose lifetime the owner controls.
type Transport interface {
	Endpoint
	// Close releases sockets and goroutines and closes the inbox.
	Close() error
}

// Peer is a snapshot of one live peer of a socket transport, for
// diagnostics surfaces (sdpd's GET /peers). Latency totals are kept
// per-peer here — the process-wide telemetry registry is a flat literal
// namespace, so per-peer histograms live in these counters instead —
// and a mean is Nanos/Count.
type Peer struct {
	// Addr is the peer's advertised (dialable) address.
	Addr Addr `json:"addr"`
	// LastSeen is when a frame from this peer last arrived (zero for
	// seeds never heard from).
	LastSeen time.Time `json:"last_seen,omitzero"`
	// Frame and byte counters for traffic attributed to this peer.
	FramesSent     uint64 `json:"frames_sent"`
	FramesReceived uint64 `json:"frames_received"`
	BytesSent      uint64 `json:"bytes_sent"`
	BytesReceived  uint64 `json:"bytes_received"`
	// SendCount/SendNanos accumulate send-call latency to this peer.
	SendCount uint64 `json:"send_count"`
	SendNanos int64  `json:"send_nanos"`
	// DialCount/DialNanos accumulate dial latency (TCP only).
	DialCount uint64 `json:"dial_count"`
	DialNanos int64  `json:"dial_nanos"`
}

// PeerLister is implemented by transports that track live peers.
type PeerLister interface {
	// Peers returns a snapshot of known peers, sorted by address.
	Peers() []Peer
}
