package discovery

import (
	"context"
	"testing"
	"time"

	"sariadne/internal/election"
	"sariadne/internal/transport"
)

// fedNode is one UDP-federated directory: a discovery node over a real
// loopback socket, the shape sdpd -federate deploys.
type fedNode struct {
	node *Node
	tr   *transport.UDP
}

// kill simulates the node's host dying: the protocol loop stops and the
// socket closes, so frames sent to it vanish without errors — exactly
// what peers of a crashed or partitioned daemon observe.
func (f *fedNode) kill() {
	f.node.Stop()
	_ = f.tr.Close()
}

// newFedNode boots one federated directory on a fresh loopback UDP port.
func newFedNode(t *testing.T, seeds ...string) *fedNode {
	t.Helper()
	tr, err := transport.NewUDP(transport.UDPConfig{
		Listen: "127.0.0.1:0",
		Codec:  WireCodec{},
		Seeds:  seeds,
	})
	if err != nil {
		t.Fatalf("NewUDP: %v", err)
	}
	n := NewNode(tr, NewSemanticBackend(fixtureRegistry(t)), Config{
		QueryTimeout:     time.Second,
		TickInterval:     2 * time.Millisecond,
		AnnounceInterval: 50 * time.Millisecond,
		Election: election.Config{
			// Directories are promoted explicitly; election traffic is not
			// codec-encodable and never crosses a socket backbone.
			ElectionTimeout: time.Hour,
		},
	})
	n.Start(context.Background())
	n.BecomeDirectory()
	f := &fedNode{node: n, tr: tr}
	t.Cleanup(f.kill)
	return f
}

// TestUDPFederationThreeNodes boots three directories federated over
// loopback UDP sockets — real frames, real codec, no simulator — and
// resolves a two-capability query end to end: registered content on B
// and C is found from A via Bloom-selected forwarding. Killing B then
// degrades the same query to a partial result naming B unreachable,
// with C's hit still present.
func TestUDPFederationThreeNodes(t *testing.T) {
	a := newFedNode(t)
	b := newFedNode(t, string(a.node.ID()))
	c := newFedNode(t, string(a.node.ID()))

	// The star settles: A hears both announces and the summary handshake
	// completes in both directions.
	waitUntil(t, 5*time.Second, "backbone handshake", func() bool {
		infos := a.node.PeerInfos()
		if len(infos) != 2 {
			return false
		}
		for _, pi := range infos {
			if !pi.HasSummary || pi.LastAnnounce.IsZero() {
				return false
			}
		}
		return len(b.node.Peers()) == 1 && len(c.node.Peers()) == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Video service on B, game service on C, nothing on A.
	if err := b.node.Publish(ctx, videoOnlyServiceDoc(t)); err != nil {
		t.Fatalf("publish on B: %v", err)
	}
	if err := c.node.Publish(ctx, gameOnlyServiceDoc(t)); err != nil {
		t.Fatalf("publish on C: %v", err)
	}
	// A's view catches the pushed summaries before it is asked to rank
	// forwarding targets by them.
	waitUntil(t, 5*time.Second, "summaries at A", func() bool {
		for _, pi := range a.node.PeerInfos() {
			if pi.Entries == 0 {
				return false
			}
		}
		return true
	})

	res, err := a.node.DiscoverResult(ctx, twoCapRequestDoc(t))
	if err != nil {
		t.Fatalf("DiscoverResult: %v", err)
	}
	if res.Partial() {
		t.Fatalf("fully-live federation returned partial result: %+v", res)
	}
	byFor := map[string]Hit{}
	for _, h := range res.Hits {
		byFor[h.For] = h
	}
	if h := byFor["GetVideoStream"]; h.Service != "VideoBox" || h.Directory != string(b.node.ID()) {
		t.Errorf("video hit = %+v, want VideoBox via %s", h, b.node.ID())
	}
	if h := byFor["GetGame"]; h.Service != "GameBox" || h.Directory != string(c.node.ID()) {
		t.Errorf("game hit = %+v, want GameBox via %s", h, c.node.ID())
	}

	// Kill B. The same query now degrades gracefully: C's hit arrives,
	// B's forward exhausts its retries, and the result is flagged partial
	// with B listed unreachable.
	b.kill()
	res, err = a.node.DiscoverResult(ctx, twoCapRequestDoc(t))
	if err != nil {
		t.Fatalf("DiscoverResult after kill: %v", err)
	}
	if !res.Partial() {
		t.Fatalf("result after killing B not partial: %+v", res)
	}
	if len(res.Unreachable) != 1 || res.Unreachable[0] != b.node.ID() {
		t.Fatalf("Unreachable = %v, want [%s]", res.Unreachable, b.node.ID())
	}
	byFor = map[string]Hit{}
	for _, h := range res.Hits {
		byFor[h.For] = h
	}
	if h := byFor["GetGame"]; h.Service != "GameBox" || h.Directory != string(c.node.ID()) {
		t.Errorf("game hit after kill = %+v, want GameBox via %s", h, c.node.ID())
	}
	if h, ok := byFor["GetVideoStream"]; ok {
		t.Errorf("dead directory still answered: %+v", h)
	}
}
