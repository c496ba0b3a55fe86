package transport

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// mesh is what the socket transports share: this node's identity and
// codec, the inbox, the closed flag, and one table of peers. A transport
// embeds it and supplies write, the one step of a send that touches its
// socket; Send, Broadcast, Peers and Healthy are the mesh's.
//
// A mesh carries frames between different nodes only. A node delivers to
// itself, so a send to the mesh's own address is refused, and a frame
// claiming that address as its sender is dropped: the table never holds
// this node.
type mesh struct {
	name  string // "udp" or "tcp", for errors
	self  Addr
	codec Codec
	inbox chan Message
	// write puts one framed payload on its way to a peer that is not this
	// node. It fails once the transport is closed.
	write func(to Addr, frame []byte) error

	mu     sync.Mutex
	peers  map[Addr]*peer // guarded by mu
	closed bool           // guarded by mu
}

// peer is one entry of the table: the diagnostics snapshot and the socket
// state of the transport that owns the table.
type peer struct {
	stat Peer
	// raddr is the resolved UDP address, looked up on first send, so
	// peers learned from inbound traffic cost nothing until addressed.
	raddr *net.UDPAddr
	// sendq is the queue a TCP writer goroutine drains (nil until first
	// send).
	sendq chan []byte
}

// init readies the mesh: an inbox of queue messages (128 when queue is not
// positive) and an entry for every seed other than this node.
func (m *mesh) init(name string, self Addr, codec Codec, seeds []string, queue int, write func(Addr, []byte) error) {
	if queue <= 0 {
		queue = 128
	}
	m.name, m.self, m.codec, m.write = name, self, codec, write
	m.inbox = make(chan Message, queue)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.peers = make(map[Addr]*peer)
	for _, s := range seeds {
		if s != "" && Addr(s) != self {
			m.peers[Addr(s)] = &peer{}
		}
	}
}

// ID implements Endpoint.
func (m *mesh) ID() Addr { return m.self }

// Inbox implements Endpoint.
func (m *mesh) Inbox() <-chan Message { return m.inbox }

// errClosed is what every operation on a closed transport reports.
func (m *mesh) errClosed() error { return fmt.Errorf("transport: %s: closed", m.name) }

// peerLocked returns the entry for addr, creating it on first contact.
// Callers hold m.mu.
func (m *mesh) peerLocked(addr Addr) *peer {
	p, ok := m.peers[addr]
	if !ok {
		p = &peer{}
		m.peers[addr] = p
	}
	return p
}

// frame encodes a payload and wraps it in the envelope.
func (m *mesh) frame(payload any) ([]byte, error) {
	body, err := m.codec.Encode(payload)
	if err != nil {
		return nil, err
	}
	return EncodeFrame(m.self, body)
}

// Send implements Endpoint. Delivery is best effort; only a payload the
// codec cannot encode, an address the transport cannot reach, this
// node's own address, and a closed transport are reported.
func (m *mesh) Send(to Addr, payload any) error {
	if to == m.self {
		return fmt.Errorf("transport: %s: send to own address %s", m.name, to)
	}
	frame, err := m.frame(payload)
	if err != nil {
		return err
	}
	return m.write(to, frame)
}

// Broadcast implements Endpoint: the payload is framed once and goes to
// every peer in the table (seeds plus learned). The backbone overlay is
// fully meshed, so the simulator's hop-limited flood degenerates to one
// round of unicasts and ttl is accepted but unused. The count of peers
// successfully written is returned; individual losses are the protocol's
// to absorb.
func (m *mesh) Broadcast(_ int, payload any) (int, error) {
	frame, err := m.frame(payload)
	if err != nil {
		// Unencodable payloads (e.g. election vicinity traffic, which
		// never crosses a socket backbone) are reported, not sent.
		return 0, err
	}
	m.mu.Lock()
	targets := make([]Addr, 0, len(m.peers))
	for addr := range m.peers {
		targets = append(targets, addr)
	}
	m.mu.Unlock()
	sent := 0
	for _, to := range targets {
		if m.write(to, frame) == nil {
			sent++
		}
	}
	return sent, nil
}

// receive accounts one frame of n bytes read from the socket and delivers
// its body to the inbox. A frame claiming this node as its sender, a body
// the codec rejects, and a frame meeting a full or closed inbox are
// dropped and counted. Delivering under m.mu is what makes the
// close-vs-deliver race impossible; the send never blocks, so the lock is
// held only momentarily.
func (m *mesh) receive(from Addr, body []byte, n int) {
	if from == m.self {
		framesDroppedTotal.Inc()
		return
	}
	payload, err := m.codec.Decode(body)
	if err != nil {
		framesDroppedTotal.Inc()
		return
	}
	bytesReceivedTotal.Add(uint64(n))
	framesReceivedTotal.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peerLocked(from)
	p.stat.FramesReceived++
	p.stat.BytesReceived += uint64(n)
	p.stat.LastSeen = time.Now()
	if m.closed {
		framesDroppedTotal.Inc()
		return
	}
	select {
	case m.inbox <- Message{From: from, To: m.self, Hops: 1, Payload: payload}:
	default:
		framesDroppedTotal.Inc()
	}
}

// wrote accounts one write of n bytes to a peer's socket, begun at start,
// and passes its error through.
func (m *mesh) wrote(to Addr, n int, start time.Time, err error) error {
	d := time.Since(start)
	sendSeconds.Observe(d)
	if err != nil {
		framesDroppedTotal.Inc()
		return err
	}
	bytesSentTotal.Add(uint64(n))
	framesSentTotal.Inc()
	m.mu.Lock()
	st := &m.peerLocked(to).stat
	st.FramesSent++
	st.BytesSent += uint64(n)
	st.SendCount++
	st.SendNanos += int64(d)
	m.mu.Unlock()
	return nil
}

// Peers implements PeerLister.
func (m *mesh) Peers() []Peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Peer, 0, len(m.peers))
	for addr, p := range m.peers {
		st := p.stat
		st.Addr = addr
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Healthy implements the optional liveness probe health surfaces use: a
// closed transport cannot carry backbone traffic.
func (m *mesh) Healthy() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.errClosed()
	}
	return nil
}

// shut marks the transport closed, reporting false if it already was.
// After it, write fails and receive drops, so the owner may close the
// inbox once its readers are joined.
func (m *mesh) shut() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.closed = true
	return true
}
