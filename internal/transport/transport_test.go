package transport

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"sariadne/internal/testutil"
)

// testPayload is the message type the transport tests ship around; the
// real protocol's codec is injected the same way by discovery.
type testPayload struct {
	Seq  int    `json:"seq"`
	Note string `json:"note"`
}

// testCodec is a minimal Codec over testPayload.
type testCodec struct{}

func (testCodec) Encode(payload any) ([]byte, error) {
	p, ok := payload.(testPayload)
	if !ok {
		return nil, fmt.Errorf("testCodec: unencodable %T", payload)
	}
	return json.Marshal(p)
}

func (testCodec) Decode(frame []byte) (any, error) {
	var p testPayload
	if err := json.Unmarshal(frame, &p); err != nil {
		return nil, err
	}
	return p, nil
}

// recvPayload waits for one message on tr's inbox and returns its
// payload, failing the test on timeout.
func recvPayload(t *testing.T, tr Transport) (Addr, testPayload) {
	t.Helper()
	select {
	case msg, ok := <-tr.Inbox():
		if !ok {
			t.Fatalf("%s: inbox closed", tr.ID())
		}
		p, ok := msg.Payload.(testPayload)
		if !ok {
			t.Fatalf("%s: payload %T", tr.ID(), msg.Payload)
		}
		return msg.From, p
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no message within 5s", tr.ID())
	}
	panic("unreachable")
}

// TestSendToOwnAddressRefused: a node delivers to itself, so a socket
// transport carries no frame addressed to its own ID. The send is
// refused, nothing arrives, and no peer entry is made for it.
func TestSendToOwnAddressRefused(t *testing.T) {
	type socket interface {
		Transport
		PeerLister
	}
	for _, tc := range []struct {
		name string
		open func(*testing.T) socket
	}{
		{"udp", func(t *testing.T) socket { return newTestUDP(t) }},
		{"tcp", func(t *testing.T) socket { return newTestTCP(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.open(t)
			if err := a.Send(a.ID(), testPayload{Seq: 7}); err == nil {
				t.Fatal("send to own address accepted")
			}
			if n, err := a.Broadcast(3, testPayload{Seq: 8}); err != nil || n != 0 {
				t.Fatalf("Broadcast with no peers = %d, %v", n, err)
			}
			if peers := a.Peers(); len(peers) != 0 {
				t.Fatalf("send to own address created a peer: %+v", peers)
			}
			select {
			case msg := <-a.Inbox():
				t.Fatalf("delivered %+v", msg)
			default:
			}
		})
	}
}

func TestPeersSortedAndSnapshotted(t *testing.T) {
	u, err := NewUDP(UDPConfig{
		Listen: "127.0.0.1:0",
		Codec:  testCodec{},
		Seeds:  []string{"127.0.0.1:9002", "127.0.0.1:9001"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := u.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	peers := u.Peers()
	if len(peers) != 2 || peers[0].Addr != "127.0.0.1:9001" || peers[1].Addr != "127.0.0.1:9002" {
		t.Fatalf("Peers = %+v", peers)
	}
	if !peers[0].LastSeen.IsZero() {
		t.Fatalf("seed never heard from has LastSeen %v", peers[0].LastSeen)
	}
}

// waitPeerFrames blocks until the transport's stats for peer show at
// least n received frames.
func waitPeerFrames(t *testing.T, pl PeerLister, peer Addr, n uint64) {
	t.Helper()
	testutil.WaitFor(t, 5*time.Second, func() bool {
		for _, p := range pl.Peers() {
			if p.Addr == peer && p.FramesReceived >= n {
				return true
			}
		}
		return false
	}, "peer %s never reached %d received frames", peer, n)
}
