package transport

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// UDPConfig parameterizes a UDP datagram transport.
type UDPConfig struct {
	// Listen is the UDP address to bind ("127.0.0.1:0" picks a free
	// port). Required.
	Listen string
	// Advertise is the address announced to peers as this node's
	// identity. It defaults to the bound address, which is only dialable
	// when Listen names a concrete interface; daemons binding 0.0.0.0 or
	// sitting behind NAT must set it explicitly.
	Advertise string
	// Codec serializes protocol payloads. Required.
	Codec Codec
	// Seeds are peer addresses known before any traffic arrives; they
	// bootstrap Broadcast so a fresh daemon can announce itself.
	Seeds []string
	// QueueSize bounds the inbox; deliveries to a full inbox are dropped
	// and counted, mirroring the simulator. Defaults to 128.
	QueueSize int
}

// UDP is the datagram transport: one protocol message per datagram,
// wrapped in the frame.go envelope. Peers are the configured seeds plus
// every address a valid frame ever arrived from, so the mesh fills in as
// daemons announce themselves. Sends to this node's own address bypass
// the socket and go straight to the inbox: that is how a directory's
// Publish and Deregister reach its own directory. Its queries never take
// that way.
type UDP struct {
	conn  *net.UDPConn
	codec Codec
	self  Addr
	inbox chan Message

	mu     sync.Mutex
	peers  map[Addr]*udpPeer // guarded by mu
	closed bool              // guarded by mu

	readerDone chan struct{}
}

// udpPeer is what the transport tracks per peer: the resolved socket
// address (lazily, so peers learned from inbound traffic cost nothing
// until addressed) and the diagnostics snapshot.
type udpPeer struct {
	raddr *net.UDPAddr
	stat  Peer
}

// NewUDP binds a UDP transport and starts its reader.
func NewUDP(cfg UDPConfig) (*UDP, error) {
	if cfg.Codec == nil {
		return nil, fmt.Errorf("transport: udp: nil codec")
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: udp listen %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: udp listen %q: %w", cfg.Listen, err)
	}
	self := cfg.Advertise
	if self == "" {
		self = conn.LocalAddr().String()
	}
	queue := cfg.QueueSize
	if queue <= 0 {
		queue = 128
	}
	u := &UDP{
		conn:       conn,
		codec:      cfg.Codec,
		self:       Addr(self),
		inbox:      make(chan Message, queue),
		peers:      make(map[Addr]*udpPeer),
		readerDone: make(chan struct{}),
	}
	for _, s := range cfg.Seeds {
		if Addr(s) == u.self || s == "" {
			continue
		}
		u.peers[Addr(s)] = &udpPeer{}
	}
	go u.readLoop()
	return u, nil
}

// ID implements Endpoint.
func (u *UDP) ID() Addr { return u.self }

// Inbox implements Endpoint.
func (u *UDP) Inbox() <-chan Message { return u.inbox }

// readLoop is the single socket reader: it decodes envelopes and bodies,
// learns peers from the advertised sender address, and delivers to the
// inbox. It exits when Close shuts the socket down, then hands the inbox
// back to Close for the final close.
func (u *UDP) readLoop() {
	defer close(u.readerDone)
	buf := make([]byte, 64*1024)
	for {
		n, _, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		from, body, err := DecodeFrame(buf[:n])
		if err != nil || from == u.self {
			framesDroppedTotal.Inc()
			continue
		}
		payload, err := u.codec.Decode(body)
		if err != nil {
			framesDroppedTotal.Inc()
			continue
		}
		bytesReceivedTotal.Add(uint64(n))
		framesReceivedTotal.Inc()
		u.mu.Lock()
		p := u.peerLocked(from)
		p.stat.FramesReceived++
		p.stat.BytesReceived += uint64(n)
		p.stat.LastSeen = time.Now()
		u.deliverLocked(Message{From: from, To: u.self, Hops: 1, Payload: payload})
		u.mu.Unlock()
	}
}

// peerLocked returns the peer record for addr, creating it on first
// contact. Callers hold u.mu.
func (u *UDP) peerLocked(addr Addr) *udpPeer {
	p, ok := u.peers[addr]
	if !ok {
		p = &udpPeer{}
		u.peers[addr] = p
	}
	return p
}

// deliverLocked hands a message to the inbox, dropping (and counting)
// when it is full or the transport is closed. Running under u.mu is what
// makes the close-vs-deliver race impossible; the send never blocks, so
// the lock is held only momentarily. Callers hold u.mu.
func (u *UDP) deliverLocked(msg Message) {
	if u.closed {
		framesDroppedTotal.Inc()
		return
	}
	select {
	case u.inbox <- msg:
	default:
		framesDroppedTotal.Inc()
	}
}

// Send implements Endpoint. Sending to this node's own address delivers
// straight to the inbox (zero hops, no serialization), which is how a
// directory's own Publish and Deregister reach it.
func (u *UDP) Send(to Addr, payload any) error {
	if to == u.self {
		u.mu.Lock()
		defer u.mu.Unlock()
		if u.closed {
			return fmt.Errorf("transport: udp: closed")
		}
		u.deliverLocked(Message{From: u.self, To: u.self, Hops: 0, Payload: payload})
		return nil
	}
	body, err := u.codec.Encode(payload)
	if err != nil {
		return err
	}
	frame, err := EncodeFrame(u.self, body)
	if err != nil {
		return err
	}
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return fmt.Errorf("transport: udp: closed")
	}
	p := u.peerLocked(to)
	if p.raddr == nil {
		raddr, err := net.ResolveUDPAddr("udp", string(to))
		if err != nil {
			u.mu.Unlock()
			framesDroppedTotal.Inc()
			return fmt.Errorf("transport: udp resolve %q: %w", to, err)
		}
		p.raddr = raddr
	}
	raddr := p.raddr
	u.mu.Unlock()

	start := time.Now()
	n, err := u.conn.WriteToUDP(frame, raddr)
	sendSeconds.ObserveSince(start)
	if err != nil {
		framesDroppedTotal.Inc()
		return fmt.Errorf("transport: udp send to %s: %w", to, err)
	}
	bytesSentTotal.Add(uint64(n))
	framesSentTotal.Inc()
	u.mu.Lock()
	st := &u.peerLocked(to).stat
	st.FramesSent++
	st.BytesSent += uint64(n)
	st.SendCount++
	st.SendNanos += int64(time.Since(start))
	u.mu.Unlock()
	return nil
}

// Broadcast implements Endpoint: the payload goes to every known peer
// (seeds plus learned). The backbone overlay is fully meshed, so the
// simulator's hop-limited flood degenerates to one round of unicasts and
// ttl is accepted but unused. The count of peers successfully written is
// returned; individual losses are the protocol's to absorb.
func (u *UDP) Broadcast(_ int, payload any) (int, error) {
	if _, err := u.codec.Encode(payload); err != nil {
		// Unencodable payloads (e.g. election vicinity traffic, which
		// never crosses a socket backbone) are reported, not sent.
		return 0, err
	}
	u.mu.Lock()
	targets := make([]Addr, 0, len(u.peers))
	for addr := range u.peers {
		targets = append(targets, addr)
	}
	u.mu.Unlock()
	sent := 0
	for _, to := range targets {
		if u.Send(to, payload) == nil {
			sent++
		}
	}
	return sent, nil
}

// Peers implements PeerLister.
func (u *UDP) Peers() []Peer {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]Peer, 0, len(u.peers))
	for addr, p := range u.peers {
		st := p.stat
		st.Addr = addr
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Healthy implements the optional liveness probe health surfaces use: a
// closed transport cannot carry backbone traffic.
func (u *UDP) Healthy() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return fmt.Errorf("transport: udp: closed")
	}
	return nil
}

// Close implements Transport: it stops the reader, then closes the
// inbox. Safe to call twice.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	err := u.conn.Close()
	<-u.readerDone
	// closed is set, so no deliverLocked can race this close.
	close(u.inbox)
	return err
}

var (
	_ Transport  = (*UDP)(nil)
	_ PeerLister = (*UDP)(nil)
)
