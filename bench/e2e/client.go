package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// opTimeout bounds one request. After a timeout the connection is
// re-dialled, so a late reply lands on a dead socket instead of being
// taken for the answer to the next request.
const opTimeout = 2 * time.Second

// conn is one closed-loop client connection: do sends a pre-marshalled
// request and returns the reply body, valid until the next call. A non-nil
// sent receives the time the request left, which splits a traced op into
// its send and wait spans.
type conn interface {
	do(req []byte, sent *time.Time) ([]byte, error)
	// sent and received count the bytes moved over the socket so far.
	sent() int64
	received() int64
	redial() error
	close()
}

// udpConn speaks sdpd's one-JSON-object-per-datagram protocol over a
// connected socket.
type udpConn struct {
	addr    string
	timeout time.Duration
	c       *net.UDPConn
	buf     []byte
	tx, rx  int64
}

func dialUDP(addr string) (*udpConn, error) {
	u := &udpConn{addr: addr, timeout: opTimeout, buf: make([]byte, 64*1024)}
	return u, u.redial()
}

func (u *udpConn) redial() error {
	u.close()
	raddr, err := net.ResolveUDPAddr("udp", u.addr)
	if err != nil {
		return err
	}
	c, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return err
	}
	u.c = c
	return nil
}

func (u *udpConn) do(req []byte, sent *time.Time) ([]byte, error) {
	if err := u.c.SetDeadline(time.Now().Add(u.timeout)); err != nil {
		return nil, err
	}
	n, err := u.c.Write(req)
	u.tx += int64(n)
	if err != nil {
		return nil, err
	}
	if sent != nil {
		*sent = time.Now()
	}
	n, err = u.c.Read(u.buf)
	u.rx += int64(n)
	if err != nil {
		return nil, err
	}
	return u.buf[:n], nil
}

func (u *udpConn) sent() int64     { return u.tx }
func (u *udpConn) received() int64 { return u.rx }

func (u *udpConn) close() {
	if u.c != nil {
		u.c.Close()
		u.c = nil
	}
}

// httpConn speaks HTTP/1.1 keep-alive over one TCP connection: requests
// are written as pre-marshalled bytes, replies parsed by net/http.
type httpConn struct {
	addr   string
	c      net.Conn
	br     *bufio.Reader
	body   bytes.Buffer // reused across replies
	tx, rx int64
}

func dialHTTP(addr string) (*httpConn, error) {
	h := &httpConn{addr: addr}
	return h, h.redial()
}

func (h *httpConn) redial() error {
	h.close()
	c, err := net.DialTimeout("tcp", h.addr, opTimeout)
	if err != nil {
		return err
	}
	h.c = c
	h.br = bufio.NewReaderSize(countingReader{c, &h.rx}, 16*1024)
	return nil
}

// countingReader counts bytes as they come off the socket.
type countingReader struct {
	r io.Reader
	n *int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += int64(n)
	return n, err
}

// httpError is a non-2xx gateway reply; the daemon's error text is the
// body.
type httpError struct {
	status int
	text   string
}

func (e *httpError) Error() string { return fmt.Sprintf("http %d: %s", e.status, e.text) }

func (h *httpConn) do(req []byte, sent *time.Time) ([]byte, error) {
	if err := h.c.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return nil, err
	}
	n, err := h.c.Write(req)
	h.tx += int64(n)
	if err != nil {
		return nil, err
	}
	if sent != nil {
		*sent = time.Now()
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return nil, err
	}
	h.body.Reset()
	if _, err := h.body.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &httpError{resp.StatusCode, h.body.String()}
	}
	return h.body.Bytes(), nil
}

func (h *httpConn) sent() int64     { return h.tx }
func (h *httpConn) received() int64 { return h.rx }

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// wireHit and wireReply mirror the fields of sdpd's reply the harness
// checks. discovery.Hit carries no JSON tags, so its keys are the Go field
// names; encoding/json matches them case-insensitively.
type wireHit struct {
	Service    string
	Capability string
	Distance   int
}

type wirePeer struct {
	Addr       string `json:"addr"`
	HasSummary bool   `json:"has_summary"`
	Entries    int    `json:"entries"`
}

type wireStats struct {
	Capabilities int      `json:"capabilities"`
	Ontologies   []string `json:"ontologies"`
}

type wireReply struct {
	OK      bool       `json:"ok"`
	Error   string     `json:"error"`
	Code    string     `json:"code"`
	Partial bool       `json:"partial"`
	Hits    []wireHit  `json:"hits"`
	Peers   []wirePeer `json:"peers"`
	Stats   *wireStats `json:"stats"`
}

func parseReply(body []byte) (*wireReply, error) {
	var r wireReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("malformed reply: %w", err)
	}
	if !r.OK {
		return nil, fmt.Errorf("error reply: %s (%s)", r.Error, r.Code)
	}
	return &r, nil
}

func checkPublishReply(body []byte) error {
	_, err := parseReply(body)
	return err
}

// checkQueryReply verifies one query reply against the oracle: not
// partial, distances non-decreasing, every hit either a churn service or
// an expected stable one, and the stable hits exactly the oracle's set. It
// returns the hit count.
func (w *workload) checkQueryReply(ri int, body []byte) (int, error) {
	r, err := parseReply(body)
	if err != nil {
		return 0, err
	}
	if r.Partial {
		return 0, errors.New("partial reply")
	}
	want := w.requests[ri].want
	var got []hitKey
	for i, h := range r.Hits {
		if i > 0 && h.Distance < r.Hits[i-1].Distance {
			return 0, fmt.Errorf("hits not ranked: distance %d after %d", h.Distance, r.Hits[i-1].Distance)
		}
		if w.stableNames[h.Service] {
			got = append(got, hitKey{h.Service, h.Capability, h.Distance})
		}
	}
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d stable hits, oracle has %d", len(got), len(want))
	}
	sortHits(got)
	for i := range got {
		if got[i] != want[i] {
			return 0, fmt.Errorf("hit %v, oracle has %v", got[i], want[i])
		}
	}
	return len(r.Hits), nil
}

// control sends one admin op (stats, peers) to daemon i over its UDP port,
// which every daemon has whatever front end the workload drives.
func (c *cluster) control(i int, opName string) (*wireReply, error) {
	u, err := dialUDP(c.daemons[i].udp)
	if err != nil {
		return nil, err
	}
	defer u.close()
	req, err := json.Marshal(wireRequest{Op: opName, Token: c.w.token})
	if err != nil {
		return nil, err
	}
	// Short deadline: before the daemon binds its socket the datagram is
	// refused or lost, and awaitUp wants to ask again soon.
	u.timeout = 100 * time.Millisecond
	reply, err := u.do(req, nil)
	if err != nil {
		return nil, err
	}
	return parseReply(reply)
}

func (c *cluster) stats(i int) (*wireStats, error) {
	r, err := c.control(i, "stats")
	if err != nil {
		return nil, err
	}
	if r.Stats == nil {
		return nil, errors.New("stats reply without stats")
	}
	return r.Stats, nil
}

func (c *cluster) peers(i int) ([]wirePeer, error) {
	r, err := c.control(i, "peers")
	if err != nil {
		return nil, err
	}
	return r.Peers, nil
}
