package discovery

import (
	"context"
	"slices"
	"testing"
	"time"

	"sariadne/internal/bloom"
	"sariadne/internal/election"
	"sariadne/internal/simnet"
)

// TestSelectForwardTargetsDeterministic: with identical hop counts and no
// Bloom filters to discriminate, the ranking must fall back to NodeID
// order — retries and seeded chaos runs assume the target list does not
// depend on map iteration order.
func TestSelectForwardTargetsDeterministic(t *testing.T) {
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	ep, err := net.AddNode("n0")
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(ep, NewSemanticBackend(fixtureRegistry(t)), Config{MaxForwardPeers: 2})
	node.mu.Lock()
	for _, id := range []simnet.NodeID{"pz", "pa", "pm", "pc", "pq"} {
		node.peers[id] = &peerState{hops: 3} // equal scores on purpose
	}
	node.mu.Unlock()

	keys := []string{probeKey(t, node.backend, pdaRequestDoc(t))}
	wantTargets := []simnet.NodeID{"pa", "pc"}
	for run := 0; run < 25; run++ {
		targets, pruned := node.selectForwardTargets(keys)
		if len(pruned) != 0 {
			t.Fatalf("run %d: pruned %v with no filters set", run, pruned)
		}
		if !slices.Equal(targets, wantTargets) {
			t.Fatalf("run %d: targets = %v, want %v", run, targets, wantTargets)
		}
	}
}

// forwardHarness wires the entry directory n0 against three leaves on a
// star: n1 (controlled by the test, never a real node), and real
// directories n2 and n3, both holding the workstation advertisement.
// With equal hop counts the deterministic NodeID ranking makes n1 and n2
// the two MaxForwardPeers targets; n3 is cut off and never contacted.
func forwardHarness(t *testing.T, cfg Config) (*simnet.Network, *simnet.Endpoint, []*Node) {
	t.Helper()
	leakCheck(t)
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildStar(net, "n", 4)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int) *Node {
		n := NewNode(eps[i], NewSemanticBackend(fixtureRegistry(t)), cfg)
		n.Start(context.Background())
		t.Cleanup(n.Stop)
		n.BecomeDirectory()
		return n
	}
	nodes := []*Node{mk(0), nil, mk(2), mk(3)}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	for _, i := range []int{2, 3} {
		if err := nodes[i].Publish(ctx, workstationDoc(t)); err != nil {
			t.Fatal(err)
		}
	}
	// The fake peer n1 introduces itself with a summary that admits the
	// request key, so n0 ranks it as a viable target.
	key := probeKey(t, nodes[0].backend, pdaRequestDoc(t))
	fake := bloom.MustNew(64, 2)
	fake.Add(key)
	if err := eps[1].Send("n0", SummaryPush{From: "n1", Filter: fake.Marshal(), Count: 1}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, "n0 knows all three peers with usable summaries", func() bool {
		nodes[0].mu.Lock()
		defer nodes[0].mu.Unlock()
		for _, id := range []simnet.NodeID{"n1", "n2", "n3"} {
			ps := nodes[0].peers[id]
			if ps == nil || ps.filter == nil || !ps.filter.Test(key) {
				return false
			}
		}
		return true
	})
	return net, eps[1], nodes
}

// drainSilently consumes the fake peer's inbox until test cleanup,
// optionally reacting to each message; the done channel joins the
// goroutine so nothing leaks past the test.
func drainSilently(t *testing.T, ep *simnet.Endpoint, react func(simnet.Message)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			msg, err := ep.Recv(ctx)
			if err != nil {
				return
			}
			if react != nil {
				react(msg)
			}
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

func forwardConfig() Config {
	return Config{
		QueryTimeout:    300 * time.Millisecond,
		TickInterval:    2 * time.Millisecond,
		MaxForwardPeers: 2,
		ForwardRetries:  2,
		RetryBackoff:    10 * time.Millisecond,
		RetryBackoffMax: 40 * time.Millisecond,
		Election: election.Config{
			AdvertiseInterval: 20 * time.Millisecond,
			AdvertiseTTL:      2,
			ElectionTimeout:   time.Hour,
		},
	}
}

// TestSilentPeerMarkedUnreachable: the best-ranked peer n1 stays
// completely silent while n2 answers. n0 retransmits to n1 until its
// retries run out, then gives up: the final reply has n2's hit AND the
// unreachable marker for n1, and n3, cut off by MaxForwardPeers, is
// never asked.
func TestSilentPeerMarkedUnreachable(t *testing.T) {
	_, fakeEp, nodes := forwardHarness(t, forwardConfig())
	// Drain the fake peer's inbox so forwarded queries vanish silently.
	drainSilently(t, fakeEp, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := nodes[0].DiscoverResult(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatalf("DiscoverResult: %v", err)
	}
	fromN2 := false
	for _, h := range res.Hits {
		switch h.Directory {
		case "n2":
			fromN2 = true
		case "n3":
			t.Fatalf("hits = %v, n3 answered though MaxForwardPeers cut it off", res.Hits)
		}
	}
	if !fromN2 {
		t.Fatalf("hits = %v, want a hit from n2", res.Hits)
	}
	if !res.Partial() || len(res.Unreachable) != 1 || res.Unreachable[0] != "n1" {
		t.Fatalf("unreachable = %v, want [n1]", res.Unreachable)
	}
	st := nodes[0].Stats()
	if st.ForwardsSent != 2 {
		t.Fatalf("stats = %+v, want forwards to n1 and n2 only", st)
	}
	if st.ForwardRetries == 0 || st.ForwardGiveups == 0 {
		t.Fatalf("stats = %+v, want retries and a give-up on n1", st)
	}
}

// TestAckedPeerNotEvicted: n1 acknowledges every forward but never
// replies. The ack proves it alive, so n1 is not pushed toward eviction —
// but the reply still times out and the result carries the completeness
// marker.
func TestAckedPeerNotEvicted(t *testing.T) {
	_, fakeEp, nodes := forwardHarness(t, forwardConfig())
	drainSilently(t, fakeEp, func(msg simnet.Message) {
		if q, ok := msg.Payload.(QueryRequest); ok && q.Forwarded {
			_ = fakeEp.Send(msg.From, ForwardAck{ID: q.ID, From: "n1"})
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := nodes[0].DiscoverResult(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatalf("DiscoverResult: %v", err)
	}
	if !res.Partial() || len(res.Unreachable) != 1 || res.Unreachable[0] != "n1" {
		t.Fatalf("unreachable = %v, want [n1]", res.Unreachable)
	}
	st := nodes[0].Stats()
	if st.ForwardAcks == 0 {
		t.Fatalf("stats = %+v, want acks recorded", st)
	}
	nodes[0].mu.Lock()
	ps := nodes[0].peers["n1"]
	nodes[0].mu.Unlock()
	if ps == nil || ps.failures != 0 {
		t.Fatalf("acked peer accrued failures toward eviction: %+v", ps)
	}
}

// TestSilentPeerEventuallyEvicted: consecutive unacknowledged give-ups
// cross PeerFailureLimit and the peer disappears from the backbone view,
// so later queries stop wasting their deadline on it.
func TestSilentPeerEventuallyEvicted(t *testing.T) {
	cfg := forwardConfig()
	cfg.PeerFailureLimit = 2
	_, fakeEp, nodes := forwardHarness(t, cfg)
	drainSilently(t, fakeEp, nil)

	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		res, err := nodes[0].DiscoverResult(ctx, pdaRequestDoc(t))
		cancel()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !res.Partial() {
			t.Fatalf("query %d: no completeness marker while n1 is silent", i)
		}
	}
	st := nodes[0].Stats()
	if st.PeersEvicted != 1 {
		t.Fatalf("stats = %+v, want n1 evicted after 2 give-ups", st)
	}
	for _, id := range nodes[0].Peers() {
		if id == "n1" {
			t.Fatal("n1 still in the backbone view after eviction")
		}
	}
}
