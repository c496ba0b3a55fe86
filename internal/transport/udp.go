package transport

import (
	"fmt"
	"net"
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
// daemons announce themselves. Only frames between different nodes cross
// it: a send to this node's own address is refused, because a node
// delivers to itself.
type UDP struct {
	mesh
	conn       *net.UDPConn
	readerDone chan struct{}
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
	u := &UDP{conn: conn, readerDone: make(chan struct{})}
	u.init("udp", Addr(self), cfg.Codec, cfg.Seeds, cfg.QueueSize, u.write)
	go u.readLoop()
	return u, nil
}

// readLoop is the single socket reader: it decodes envelopes and hands
// them to the mesh, which learns peers from the advertised sender address
// and delivers to the inbox. It exits when Close shuts the socket down,
// then hands the inbox back to Close for the final close.
func (u *UDP) readLoop() {
	defer close(u.readerDone)
	buf := make([]byte, 64*1024)
	for {
		n, _, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		from, body, err := DecodeFrame(buf[:n])
		if err != nil {
			framesDroppedTotal.Inc()
			continue
		}
		u.receive(from, body, n)
	}
}

// write sends one frame in one datagram.
func (u *UDP) write(to Addr, frame []byte) error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return u.errClosed()
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
	if err := u.wrote(to, n, start, err); err != nil {
		return fmt.Errorf("transport: udp send to %s: %w", to, err)
	}
	return nil
}

// Close implements Transport: it stops the reader, then closes the
// inbox. Safe to call twice.
func (u *UDP) Close() error {
	if !u.shut() {
		return nil
	}
	err := u.conn.Close()
	<-u.readerDone
	// The mesh is closed, so no receive can race this close.
	close(u.inbox)
	return err
}

var (
	_ Transport  = (*UDP)(nil)
	_ PeerLister = (*UDP)(nil)
)
