package transport

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// TCPConfig parameterizes a TCP stream transport.
type TCPConfig struct {
	// Listen is the TCP address to bind ("127.0.0.1:0" picks a free
	// port). Required.
	Listen string
	// Advertise is the address announced to peers as this node's
	// identity; defaults to the bound address.
	Advertise string
	// Codec serializes protocol payloads. Required.
	Codec Codec
	// Seeds are peer addresses known before any traffic arrives.
	Seeds []string
	// QueueSize bounds the inbox and each per-peer write queue. Frames
	// offered to a full queue are dropped and counted. Defaults to 128.
	QueueSize int
	// DialTimeout bounds one connection attempt. Defaults to 2s.
	DialTimeout time.Duration
}

// TCP is the stream transport: frames (frame.go envelopes) ride
// length-delimited on persistent connections. Each peer gets one
// outbound connection, dialed on first send and reused after, fed by a
// dedicated writer goroutine draining a bounded queue — so a slow or
// dead peer backpressures into drops on its own queue instead of
// stalling the protocol loop. Inbound connections get their own reader
// until the remote closes; peer identity comes from the envelope's
// advertised address, never the socket's source address.
type TCP struct {
	ln    net.Listener
	codec Codec
	self  Addr
	inbox chan Message
	queue int
	dialT time.Duration

	mu     sync.Mutex
	peers  map[Addr]*tcpPeer // guarded by mu
	conns  map[net.Conn]bool // guarded by mu; every live conn, for Close
	closed bool              // guarded by mu

	wg sync.WaitGroup
}

// tcpPeer holds the outbound side of one peer: the write queue its
// writer goroutine drains (nil until first send) and the diagnostics
// snapshot.
type tcpPeer struct {
	sendq chan []byte
	stat  Peer
}

// NewTCP binds a TCP transport and starts its acceptor.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	if cfg.Codec == nil {
		return nil, fmt.Errorf("transport: tcp: nil codec")
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp listen %q: %w", cfg.Listen, err)
	}
	self := cfg.Advertise
	if self == "" {
		self = ln.Addr().String()
	}
	queue := cfg.QueueSize
	if queue <= 0 {
		queue = 128
	}
	dialT := cfg.DialTimeout
	if dialT <= 0 {
		dialT = 2 * time.Second
	}
	t := &TCP{
		ln:    ln,
		codec: cfg.Codec,
		self:  Addr(self),
		inbox: make(chan Message, queue),
		queue: queue,
		dialT: dialT,
		peers: make(map[Addr]*tcpPeer),
		conns: make(map[net.Conn]bool),
	}
	for _, s := range cfg.Seeds {
		if Addr(s) == t.self || s == "" {
			continue
		}
		t.peers[Addr(s)] = &tcpPeer{}
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// ID implements Endpoint.
func (t *TCP) ID() Addr { return t.self }

// Inbox implements Endpoint.
func (t *TCP) Inbox() <-chan Message { return t.inbox }

// acceptLoop takes inbound connections and spawns a reader per
// connection. It exits when Close shuts the listener down.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !t.track(conn) {
			_ = conn.Close()
			return
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// track registers a live connection for Close to tear down; it reports
// false when the transport has already closed.
func (t *TCP) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[conn] = true
	return true
}

// untrack forgets a connection once its owner has closed it.
func (t *TCP) untrack(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// readLoop drains frames from one connection (inbound or outbound —
// peers may reply down a connection we dialed) until it fails or the
// transport closes.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrack(conn)
	defer conn.Close()
	for {
		from, body, n, err := t.readOne(conn)
		if err != nil {
			return
		}
		if from == t.self {
			framesDroppedTotal.Inc()
			continue
		}
		payload, err := t.codec.Decode(body)
		if err != nil {
			framesDroppedTotal.Inc()
			continue
		}
		bytesReceivedTotal.Add(uint64(n))
		framesReceivedTotal.Inc()
		t.mu.Lock()
		p := t.peerLocked(from)
		p.stat.FramesReceived++
		p.stat.BytesReceived += uint64(n)
		p.stat.LastSeen = time.Now()
		t.deliverLocked(Message{From: from, To: t.self, Hops: 1, Payload: payload})
		t.mu.Unlock()
	}
}

// readOne reads a single envelope, treating a foreign frame version as
// fatal for the connection (the stream cannot be resynchronized past an
// envelope we cannot parse).
func (t *TCP) readOne(conn net.Conn) (Addr, []byte, int, error) {
	from, body, n, err := ReadFrame(conn)
	if err != nil {
		framesDroppedTotal.Inc()
		return "", nil, n, err
	}
	return from, body, n, nil
}

// peerLocked returns the peer record for addr, creating it on first
// contact. Callers hold t.mu.
func (t *TCP) peerLocked(addr Addr) *tcpPeer {
	p, ok := t.peers[addr]
	if !ok {
		p = &tcpPeer{}
		t.peers[addr] = p
	}
	return p
}

// deliverLocked hands a message to the inbox, dropping (and counting)
// when full or closed; it never blocks. Callers hold t.mu.
func (t *TCP) deliverLocked(msg Message) {
	if t.closed {
		framesDroppedTotal.Inc()
		return
	}
	select {
	case t.inbox <- msg:
	default:
		framesDroppedTotal.Inc()
	}
}

// Send implements Endpoint: the frame is queued for the peer's writer
// goroutine, which dials on first use and reuses the connection after.
// A full queue drops the frame — retries and leases up in discovery are
// the recovery story, exactly as for datagram loss. A send to this node's
// own address goes straight to the inbox, as over UDP: that is how a
// directory's own Publish and Deregister reach it.
func (t *TCP) Send(to Addr, payload any) error {
	if to == t.self {
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.closed {
			return fmt.Errorf("transport: tcp: closed")
		}
		t.deliverLocked(Message{From: t.self, To: t.self, Hops: 0, Payload: payload})
		return nil
	}
	body, err := t.codec.Encode(payload)
	if err != nil {
		return err
	}
	frame, err := EncodeFrame(t.self, body)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("transport: tcp: closed")
	}
	p := t.peerLocked(to)
	if p.sendq == nil {
		p.sendq = make(chan []byte, t.queue)
		t.wg.Add(1)
		go t.writeLoop(to, p.sendq)
	}
	select {
	case p.sendq <- frame:
		t.mu.Unlock()
		return nil
	default:
		t.mu.Unlock()
		framesDroppedTotal.Inc()
		return fmt.Errorf("transport: tcp send to %s: queue full", to)
	}
}

// writeLoop owns the outbound connection to one peer: dial on demand,
// write queued frames, drop the connection (to be re-dialed) on write
// failure. It exits when Close drains the transport.
func (t *TCP) writeLoop(to Addr, sendq chan []byte) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			t.untrack(conn)
			_ = conn.Close()
		}
	}()
	for frame := range sendq {
		if conn == nil {
			c, err := t.dial(to)
			if err != nil {
				framesDroppedTotal.Inc()
				continue
			}
			conn = c
		}
		start := time.Now()
		n, err := conn.Write(frame)
		sendSeconds.ObserveSince(start)
		if err != nil {
			framesDroppedTotal.Inc()
			t.untrack(conn)
			_ = conn.Close()
			conn = nil
			continue
		}
		bytesSentTotal.Add(uint64(n))
		framesSentTotal.Inc()
		t.mu.Lock()
		st := &t.peerLocked(to).stat
		st.FramesSent++
		st.BytesSent += uint64(n)
		st.SendCount++
		st.SendNanos += int64(time.Since(start))
		t.mu.Unlock()
	}
}

// dial opens (and starts reading from) a fresh connection to a peer,
// recording dial latency per peer and process-wide.
func (t *TCP) dial(to Addr) (net.Conn, error) {
	start := time.Now()
	conn, err := net.DialTimeout("tcp", string(to), t.dialT)
	dialSeconds.ObserveSince(start)
	t.mu.Lock()
	st := &t.peerLocked(to).stat
	st.DialCount++
	st.DialNanos += int64(time.Since(start))
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if !t.track(conn) {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: tcp: closed")
	}
	// Read replies arriving on the dialed connection too: some peers
	// answer on the socket the request came in on.
	t.wg.Add(1)
	go t.readLoop(conn)
	return conn, nil
}

// Broadcast implements Endpoint: one frame to every known peer (the
// overlay backbone is fully meshed, so ttl is accepted but unused).
func (t *TCP) Broadcast(_ int, payload any) (int, error) {
	if _, err := t.codec.Encode(payload); err != nil {
		return 0, err
	}
	t.mu.Lock()
	targets := make([]Addr, 0, len(t.peers))
	for addr := range t.peers {
		targets = append(targets, addr)
	}
	t.mu.Unlock()
	sent := 0
	for _, to := range targets {
		if t.Send(to, payload) == nil {
			sent++
		}
	}
	return sent, nil
}

// Peers implements PeerLister.
func (t *TCP) Peers() []Peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Peer, 0, len(t.peers))
	for addr, p := range t.peers {
		st := p.stat
		st.Addr = addr
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Healthy implements the optional liveness probe health surfaces use: a
// closed transport cannot carry backbone traffic.
func (t *TCP) Healthy() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("transport: tcp: closed")
	}
	return nil
}

// Close implements Transport: stop the listener, close send queues and
// live connections, join every goroutine, then close the inbox.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, p := range t.peers {
		if p.sendq != nil {
			close(p.sendq)
			p.sendq = nil
		}
	}
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	err := t.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	// closed is set, so no deliverLocked can race this close.
	close(t.inbox)
	return err
}

var (
	_ Transport  = (*TCP)(nil)
	_ PeerLister = (*TCP)(nil)
)
