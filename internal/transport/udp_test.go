package transport

import (
	"net"
	"testing"
	"time"

	"sariadne/internal/testutil"
)

// sendRaw writes one datagram straight to a transport's socket,
// bypassing the framing — the hostile-peer case.
func sendRaw(t *testing.T, to Addr, datagram []byte) error {
	t.Helper()
	conn, err := net.Dial("udp", string(to))
	if err != nil {
		return err
	}
	defer conn.Close()
	_, err = conn.Write(datagram)
	return err
}

func newTestUDP(t *testing.T, seeds ...string) *UDP {
	t.Helper()
	u, err := NewUDP(UDPConfig{Listen: "127.0.0.1:0", Codec: testCodec{}, Seeds: seeds})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	t.Cleanup(func() {
		if err := u.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return u
}

func TestUDPExchange(t *testing.T) {
	a := newTestUDP(t)
	b := newTestUDP(t)

	if err := a.Send(b.ID(), testPayload{Seq: 1, Note: "a to b"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	from, p := recvPayload(t, b)
	if from != a.ID() || p.Seq != 1 || p.Note != "a to b" {
		t.Fatalf("got from=%q payload=%+v", from, p)
	}

	// b learned a from the envelope; the reply needs no seeding.
	if err := b.Send(a.ID(), testPayload{Seq: 2, Note: "b to a"}); err != nil {
		t.Fatalf("reply Send: %v", err)
	}
	from, p = recvPayload(t, a)
	if from != b.ID() || p.Seq != 2 {
		t.Fatalf("got from=%q payload=%+v", from, p)
	}

	// Per-peer stats reflect the exchange on both sides.
	waitPeerFrames(t, b, a.ID(), 1)
	peers := a.Peers()
	if len(peers) != 1 || peers[0].Addr != b.ID() {
		t.Fatalf("a.Peers() = %+v", peers)
	}
	if peers[0].FramesSent != 1 || peers[0].BytesSent == 0 || peers[0].SendCount != 1 {
		t.Fatalf("a's send stats = %+v", peers[0])
	}
	testutil.WaitFor(t, 5*time.Second, func() bool {
		return a.Peers()[0].FramesReceived == 1 && !a.Peers()[0].LastSeen.IsZero()
	}, "a never recorded b's frame")
}

func TestUDPBroadcastReachesAllPeers(t *testing.T) {
	a := newTestUDP(t)
	b := newTestUDP(t, string(a.ID()))
	c := newTestUDP(t, string(a.ID()))

	// a hears from both, learning them as peers.
	if err := b.Send(a.ID(), testPayload{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(a.ID(), testPayload{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	recvPayload(t, a)
	recvPayload(t, a)

	n, err := a.Broadcast(3, testPayload{Seq: 9, Note: "flood"})
	if err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if n != 2 {
		t.Fatalf("Broadcast reached %d peers, want 2", n)
	}
	for _, peer := range []*UDP{b, c} {
		from, p := recvPayload(t, peer)
		if from != a.ID() || p.Seq != 9 {
			t.Fatalf("%s got from=%q payload=%+v", peer.ID(), from, p)
		}
	}
}

func TestUDPBroadcastRejectsUnencodablePayload(t *testing.T) {
	a := newTestUDP(t, "127.0.0.1:9")
	if _, err := a.Broadcast(3, struct{ C chan int }{}); err == nil {
		t.Fatal("Broadcast encoded the unencodable")
	}
	if err := a.Send("127.0.0.1:9", struct{ C chan int }{}); err == nil {
		t.Fatal("Send encoded the unencodable")
	}
}

func TestUDPCloseClosesInboxAndRefusesSends(t *testing.T) {
	a := newTestUDP(t)
	b := newTestUDP(t)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, ok := <-a.Inbox(); ok {
		t.Fatal("inbox still open after Close")
	}
	if err := a.Send(b.ID(), testPayload{}); err == nil {
		t.Fatal("Send succeeded after Close")
	}
}

func TestUDPDropsMalformedDatagrams(t *testing.T) {
	a := newTestUDP(t)
	b := newTestUDP(t)

	// A foreign-version frame and raw garbage must both be dropped
	// without wedging the reader.
	frame, err := EncodeFrame(b.ID(), []byte(`{"seq":1}`))
	if err != nil {
		t.Fatal(err)
	}
	frame[0] = FrameVersion + 9
	if err := sendRaw(t, a.ID(), frame); err != nil {
		t.Fatal(err)
	}
	if err := sendRaw(t, a.ID(), []byte("not a frame")); err != nil {
		t.Fatal(err)
	}

	// A well-formed frame after the garbage still arrives.
	if err := b.Send(a.ID(), testPayload{Seq: 42}); err != nil {
		t.Fatal(err)
	}
	if _, p := recvPayload(t, a); p.Seq != 42 {
		t.Fatalf("payload = %+v", p)
	}
	if len(a.Peers()) != 1 {
		t.Fatalf("malformed frames created peers: %+v", a.Peers())
	}
}
