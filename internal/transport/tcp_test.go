package transport

import (
	"strings"
	"testing"
	"time"

	"sariadne/internal/testutil"
)

func newTestTCP(t *testing.T, seeds ...string) *TCP {
	t.Helper()
	tr, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0", Codec: testCodec{}, Seeds: seeds})
	if err != nil {
		t.Fatalf("NewTCP: %v", err)
	}
	t.Cleanup(func() {
		if err := tr.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return tr
}

func TestTCPExchange(t *testing.T) {
	a := newTestTCP(t)
	b := newTestTCP(t)

	if err := a.Send(b.ID(), testPayload{Seq: 1, Note: "a to b"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	from, p := recvPayload(t, b)
	if from != a.ID() || p.Seq != 1 {
		t.Fatalf("got from=%q payload=%+v", from, p)
	}

	// b learned a's advertised address from the envelope and dials back
	// on its own connection.
	if err := b.Send(a.ID(), testPayload{Seq: 2, Note: "b to a"}); err != nil {
		t.Fatalf("reply Send: %v", err)
	}
	from, p = recvPayload(t, a)
	if from != b.ID() || p.Seq != 2 {
		t.Fatalf("got from=%q payload=%+v", from, p)
	}
}

func TestTCPLargePayloadExceedsDatagram(t *testing.T) {
	a := newTestTCP(t)
	b := newTestTCP(t)

	// Well past the 64KiB datagram ceiling — the reason TCP exists here.
	big := testPayload{Seq: 3, Note: strings.Repeat("bloom-summary ", 10_000)}
	if err := a.Send(b.ID(), big); err != nil {
		t.Fatalf("Send: %v", err)
	}
	_, p := recvPayload(t, b)
	if p.Note != big.Note {
		t.Fatalf("large payload corrupted: %d bytes in, %d out", len(big.Note), len(p.Note))
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	a := newTestTCP(t)
	b := newTestTCP(t)

	for i := 0; i < 10; i++ {
		if err := a.Send(b.ID(), testPayload{Seq: i}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, p := recvPayload(t, b); p.Seq != i {
			t.Fatalf("message %d arrived out of order: %+v", i, p)
		}
	}
	waitPeerFrames(t, b, a.ID(), 10)
	for _, p := range a.Peers() {
		if p.Addr == b.ID() && p.DialCount != 1 {
			t.Fatalf("10 sends used %d dials, want 1 (connection reuse)", p.DialCount)
		}
	}
}

func TestTCPBroadcastReachesAllPeers(t *testing.T) {
	a := newTestTCP(t)
	b := newTestTCP(t)
	c := newTestTCP(t)

	if err := b.Send(a.ID(), testPayload{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(a.ID(), testPayload{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	recvPayload(t, a)
	recvPayload(t, a)

	n, err := a.Broadcast(3, testPayload{Seq: 9})
	if err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if n != 2 {
		t.Fatalf("Broadcast queued for %d peers, want 2", n)
	}
	for _, peer := range []*TCP{b, c} {
		if from, p := recvPayload(t, peer); from != a.ID() || p.Seq != 9 {
			t.Fatalf("%s got from=%q payload=%+v", peer.ID(), from, p)
		}
	}
}

func TestTCPSendToDeadPeerDropsWithoutBlocking(t *testing.T) {
	a := newTestTCP(t)
	dead := newTestTCP(t)
	deadAddr := dead.ID()
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}

	// Queueing succeeds (the writer drops on dial failure); the protocol
	// sees the loss through its own retry machinery, not a stuck Send.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			_ = a.Send(deadAddr, testPayload{Seq: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send to dead peer blocked")
	}
	testutil.WaitFor(t, 5*time.Second, func() bool {
		for _, p := range a.Peers() {
			if p.Addr == deadAddr && p.DialCount > 0 && p.FramesSent == 0 {
				return true
			}
		}
		return false
	}, "dial failures never recorded")
}

func TestTCPCloseJoinsEverything(t *testing.T) {
	a := newTestTCP(t)
	b := newTestTCP(t)
	if err := a.Send(b.ID(), testPayload{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvPayload(t, b)

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
