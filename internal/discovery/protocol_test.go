package discovery

import (
	"context"
	"errors"
	"testing"
	"time"

	"sariadne/internal/election"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/simnet"
)

// twoCapRequestDoc builds a request with two required capabilities: the
// PDA's video request plus a game request.
func twoCapRequestDoc(t *testing.T) []byte {
	t.Helper()
	svc := profile.PDAService()
	svc.Required = append(svc.Required, &profile.Capability{
		Name:     "GetGame",
		Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: "GameServer"},
		Inputs:   []ontology.Ref{{Ontology: profile.MediaOntologyURI, Name: "GameResource"}},
		Outputs:  []ontology.Ref{{Ontology: profile.MediaOntologyURI, Name: "Stream"}},
	})
	doc, err := profile.Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// gameOnlyServiceDoc advertises just the ProvideGame capability.
func gameOnlyServiceDoc(t *testing.T) []byte {
	t.Helper()
	svc := profile.WorkstationService()
	svc.Name = "GameBox"
	svc.Provided = svc.Provided[1:] // ProvideGame only
	doc, err := profile.Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// videoOnlyServiceDoc advertises a narrow video capability (VideoServer,
// VideoResource in, Stream out) that cannot substitute for a game request.
func videoOnlyServiceDoc(t *testing.T) []byte {
	t.Helper()
	svc := &profile.Service{
		Name:     "VideoBox",
		Provider: "video-host",
		Provided: []*profile.Capability{{
			Name:     "StreamVideo",
			Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: "VideoServer"},
			Inputs:   []ontology.Ref{{Ontology: profile.MediaOntologyURI, Name: "VideoResource"}},
			Outputs:  []ontology.Ref{{Ontology: profile.MediaOntologyURI, Name: "Stream"}},
		}},
	}
	doc, err := profile.Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestPartialForwarding: a two-capability request where the local
// directory answers one capability and a remote directory the other —
// Figure 6's "if some capabilities have not been found locally" path.
func TestPartialForwarding(t *testing.T) {
	_, nodes := testCluster(t, 5)
	nodes[1].BecomeDirectory()
	nodes[3].BecomeDirectory()
	waitUntil(t, 2*time.Second, "backbone handshake", func() bool {
		return len(nodes[1].Peers()) == 1 && len(nodes[3].Peers()) == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()

	// Video service next to n1; game service next to n3.
	waitUntil(t, 2*time.Second, "n0 directory", func() bool {
		d, ok := nodes[0].DirectoryID()
		return ok && d == "n1"
	})
	waitUntil(t, 2*time.Second, "n4 directory", func() bool {
		d, ok := nodes[4].DirectoryID()
		return ok && d == "n3"
	})
	if err := nodes[0].Publish(ctx, videoOnlyServiceDoc(t)); err != nil {
		t.Fatal(err)
	}
	if err := nodes[4].Publish(ctx, gameOnlyServiceDoc(t)); err != nil {
		t.Fatal(err)
	}

	hits, err := nodes[0].Discover(ctx, twoCapRequestDoc(t))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	byFor := map[string]Hit{}
	for _, h := range hits {
		byFor[h.For] = h
	}
	if len(byFor) != 2 {
		t.Fatalf("hits = %v, want answers for both capabilities", hits)
	}
	if h := byFor["GetVideoStream"]; h.Service != "VideoBox" || h.Directory != "n1" {
		t.Errorf("video hit = %+v", h)
	}
	if h := byFor["GetGame"]; h.Service != "GameBox" || h.Directory != "n3" {
		t.Errorf("game hit = %+v", h)
	}
	st := nodes[1].Stats()
	if st.QueriesForwarded != 1 {
		t.Errorf("stats = %+v, want exactly one forwarded query", st)
	}
}

// TestMaxForwardPeers bounds the fan-out to the nearest directories.
func TestMaxForwardPeers(t *testing.T) {
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildLine(net, "n", 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QueryTimeout:    300 * time.Millisecond,
		TickInterval:    2 * time.Millisecond,
		MaxForwardPeers: 1,
		Election: election.Config{
			AdvertiseInterval: 15 * time.Millisecond,
			AdvertiseTTL:      1,
			ElectionTimeout:   time.Hour,
		},
	}
	nodes := make([]*Node, len(eps))
	for i, ep := range eps {
		nodes[i] = NewNode(ep, NewSemanticBackend(fixtureRegistry(t)), cfg)
		nodes[i].Start(context.Background())
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	// Directories at n1, n3, n5; client at n0 uses n1.
	nodes[1].BecomeDirectory()
	nodes[3].BecomeDirectory()
	nodes[5].BecomeDirectory()
	waitUntil(t, 2*time.Second, "backbone", func() bool {
		return len(nodes[1].Peers()) == 2
	})
	waitUntil(t, 2*time.Second, "n0 directory", func() bool {
		_, ok := nodes[0].DirectoryID()
		return ok
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	// Both remote directories hold a matching service, so both pass the
	// Bloom probe; the fan-out bound must pick only the nearer one (n3).
	if err := nodes[3].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	if err := nodes[5].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "summaries at n1", func() bool {
		nodes[1].mu.Lock()
		defer nodes[1].mu.Unlock()
		for _, id := range []simnet.NodeID{"n3", "n5"} {
			ps := nodes[1].peers[id]
			if ps == nil || ps.filter == nil || ps.filter.Additions() == 0 {
				return false
			}
		}
		return true
	})
	hits, err := nodes[0].Discover(ctx, pdaRequestDoc(t))
	if err != nil || len(hits) == 0 {
		t.Fatalf("Discover: hits=%v err=%v", hits, err)
	}
	if hits[0].Directory != "n3" {
		t.Errorf("answering directory = %s, want nearest (n3)", hits[0].Directory)
	}
	st := nodes[1].Stats()
	if st.ForwardsSent != 1 {
		t.Fatalf("stats = %+v, want ForwardsSent=1 (MaxForwardPeers)", st)
	}
}

// TestLeaseExpiry: with soft-state leases, advertisements of a dead
// publisher disappear; a live publisher's refresh keeps them alive.
func TestLeaseExpiry(t *testing.T) {
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildLine(net, "n", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QueryTimeout:    300 * time.Millisecond,
		TickInterval:    2 * time.Millisecond,
		LeaseTTL:        120 * time.Millisecond,
		RefreshInterval: 30 * time.Millisecond,
		Election: election.Config{
			AdvertiseInterval: 15 * time.Millisecond,
			AdvertiseTTL:      3,
			ElectionTimeout:   time.Hour,
		},
	}
	nodes := make([]*Node, len(eps))
	for i, ep := range eps {
		nodes[i] = NewNode(ep, NewSemanticBackend(fixtureRegistry(t)), cfg)
		nodes[i].Start(context.Background())
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	nodes[1].BecomeDirectory()
	waitUntil(t, 2*time.Second, "directory", func() bool {
		_, ok0 := nodes[0].DirectoryID()
		_, ok2 := nodes[2].DirectoryID()
		return ok0 && ok2
	})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := nodes[0].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}

	// The publisher refreshes, so the advertisement must stay discoverable
	// continuously for several TTLs: poll Discover until the window has
	// elapsed, failing the moment the advertisement drops out.
	refreshWindow := time.Now().Add(3 * cfg.LeaseTTL)
	waitUntil(t, 10*cfg.LeaseTTL, "advertisement to survive 3 lease TTLs", func() bool {
		hits, err := nodes[2].Discover(ctx, pdaRequestDoc(t))
		if err != nil || len(hits) != 1 {
			t.Fatalf("hits during refresh window = %v, err = %v", hits, err)
		}
		return time.Now().After(refreshWindow)
	})

	// Kill the publisher: its lease lapses and the directory forgets it.
	nodes[0].Stop()
	net.RemoveNode("n0")
	waitUntil(t, 3*time.Second, "lease expiry", func() bool {
		ctx2, cancel2 := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel2()
		hits, err := nodes[2].Discover(ctx2, pdaRequestDoc(t))
		return err == nil && len(hits) == 0
	})
}

// TestReactiveSummaryRefresh: a peer whose summary went stale (service
// deregistered without a push) keeps attracting forwards until the
// stale-ratio trigger requests a fresh summary, after which the peer is
// pruned.
func TestReactiveSummaryRefresh(t *testing.T) {
	_, nodes := testCluster(t, 5)
	nodes[1].BecomeDirectory()
	nodes[3].BecomeDirectory()
	waitUntil(t, 2*time.Second, "backbone handshake", func() bool {
		return len(nodes[1].Peers()) == 1 && len(nodes[3].Peers()) == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// n4 publishes the workstation at n3, then deregisters it directly at
	// the backend (simulating silent departure): n3's pushed summary at n1
	// is now stale.
	waitUntil(t, 2*time.Second, "n4 directory", func() bool {
		d, ok := nodes[4].DirectoryID()
		return ok && d == "n3"
	})
	if err := nodes[4].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "stale summary at n1", func() bool {
		nodes[1].mu.Lock()
		defer nodes[1].mu.Unlock()
		ps := nodes[1].peers["n3"]
		return ps != nil && ps.filter != nil
	})
	// The service departs via the protocol: n3's own filter is rebuilt,
	// but the summary n1 already holds is now stale (no push on removal).
	if err := nodes[4].Deregister(ctx, "MediaWorkstation"); err != nil {
		t.Fatal(err)
	}

	// Repeated unresolvable queries through n1 hit the stale filter,
	// forward to n3, come back empty, and eventually trigger the refresh.
	waitUntil(t, 2*time.Second, "n0 directory", func() bool {
		d, ok := nodes[0].DirectoryID()
		return ok && d == "n1"
	})
	for i := 0; i < 6; i++ {
		if _, err := nodes[0].Discover(ctx, pdaRequestDoc(t)); err != nil {
			t.Fatalf("Discover %d: %v", i, err)
		}
	}
	// After the refresh, the fresh (empty) summary prunes n3.
	waitUntil(t, 3*time.Second, "pruning after refresh", func() bool {
		before := nodes[1].Stats().ForwardsPruned
		if _, err := nodes[0].Discover(ctx, pdaRequestDoc(t)); err != nil {
			return false
		}
		return nodes[1].Stats().ForwardsPruned > before
	})
}

// TestForwardTimeout: when a peer directory dies mid-query, the
// aggregation deadline still delivers an answer (with whatever was
// collected) instead of hanging the client.
func TestForwardTimeout(t *testing.T) {
	net, nodes := testCluster(t, 5)
	nodes[1].BecomeDirectory()
	nodes[3].BecomeDirectory()
	waitUntil(t, 2*time.Second, "backbone handshake", func() bool {
		return len(nodes[1].Peers()) == 1 && len(nodes[3].Peers()) == 1
	})
	waitUntil(t, 2*time.Second, "n0 directory", func() bool {
		d, ok := nodes[0].DirectoryID()
		return ok && d == "n1"
	})
	// Kill n3's process but leave it wired into n1's peer set: forwarded
	// queries to it go unanswered.
	nodes[3].Stop()
	net.RemoveNode("n3")

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	hits, err := nodes[0].Discover(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(hits) != 0 {
		t.Fatalf("hits = %v, want none", hits)
	}
	// The answer must have waited for the aggregation deadline, not the
	// client context.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("answer took %v, aggregation deadline did not fire", elapsed)
	}
}

// TestDeregisterErrors covers the client-side failure paths.
func TestDeregisterErrors(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	// No directory known yet.
	if err := nodes[0].Deregister(ctx, "anything"); !errors.Is(err, ErrNoDirectory) {
		t.Fatalf("Deregister = %v, want ErrNoDirectory", err)
	}
	nodes[1].BecomeDirectory()
	waitUntil(t, 2*time.Second, "directory", func() bool {
		_, ok := nodes[0].DirectoryID()
		return ok
	})
	// Unknown service is rejected by the directory.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := nodes[0].Deregister(ctx2, "ghost"); err == nil {
		t.Fatal("Deregister of unknown service succeeded")
	}
	// Publish then deregister cleanly.
	if err := nodes[0].Publish(ctx2, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Deregister(ctx2, "MediaWorkstation"); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	hits, err := nodes[0].Discover(ctx2, pdaRequestDoc(t))
	if err != nil || len(hits) != 0 {
		t.Fatalf("after deregister: hits=%v err=%v", hits, err)
	}
}
