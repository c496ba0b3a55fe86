package transport

import (
	"fmt"
	"net"
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
// advertised address, never the socket's source address. Only frames
// between different nodes cross it: a send to this node's own address
// is refused, because a node delivers to itself.
type TCP struct {
	mesh
	ln    net.Listener
	dialT time.Duration
	// conns is every live connection, for Close. Guarded by the mesh's
	// mu, so no connection is tracked once the mesh is closed.
	conns map[net.Conn]bool // guarded by mu

	wg sync.WaitGroup
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
	dialT := cfg.DialTimeout
	if dialT <= 0 {
		dialT = 2 * time.Second
	}
	t := &TCP{ln: ln, dialT: dialT, conns: make(map[net.Conn]bool)}
	t.init("tcp", Addr(self), cfg.Codec, cfg.Seeds, cfg.QueueSize, t.write)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

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
// transport closes. A foreign frame version is fatal for the connection:
// the stream cannot be resynchronized past an envelope we cannot parse.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrack(conn)
	defer conn.Close()
	for {
		from, body, n, err := ReadFrame(conn)
		if err != nil {
			framesDroppedTotal.Inc()
			return
		}
		t.receive(from, body, n)
	}
}

// write queues a frame for the peer's writer goroutine, which dials on
// first use and reuses the connection after. A full queue drops the
// frame — retries and leases up in discovery are the recovery story,
// exactly as for datagram loss.
func (t *TCP) write(to Addr, frame []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.errClosed()
	}
	p := t.peerLocked(to)
	if p.sendq == nil {
		p.sendq = make(chan []byte, cap(t.inbox))
		t.wg.Add(1)
		go t.writeLoop(to, p.sendq)
	}
	select {
	case p.sendq <- frame:
		return nil
	default:
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
		if t.wrote(to, n, start, err) != nil {
			t.untrack(conn)
			_ = conn.Close()
			conn = nil
		}
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
		return nil, t.errClosed()
	}
	// Read replies arriving on the dialed connection too: some peers
	// answer on the socket the request came in on.
	t.wg.Add(1)
	go t.readLoop(conn)
	return conn, nil
}

// Close implements Transport: stop the listener, close send queues and
// live connections, join every goroutine, then close the inbox.
func (t *TCP) Close() error {
	if !t.shut() {
		return nil
	}
	t.mu.Lock()
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
	// The mesh is closed, so no receive can race this close.
	close(t.inbox)
	return err
}

var (
	_ Transport  = (*TCP)(nil)
	_ PeerLister = (*TCP)(nil)
)
