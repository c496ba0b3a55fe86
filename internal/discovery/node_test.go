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
	"sariadne/internal/testutil"
	"sariadne/internal/transport"
)

// testCluster wires count nodes on a line topology with semantic backends.
// Directories must be promoted by the caller (static mode).
func testCluster(t *testing.T, count int) (*simnet.Network, []*Node) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildLine(net, "n", count)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QueryTimeout: 500 * time.Millisecond,
		TickInterval: 2 * time.Millisecond,
		Election: election.Config{
			AdvertiseInterval: 20 * time.Millisecond,
			// Vicinity of 2 hops: on the 5-node line, n1 covers n0..n3 and
			// n3 covers n1..n5, so edge nodes have a unique directory.
			AdvertiseTTL: 2,
			// Static deployments promote explicitly; keep the timeout huge
			// so members never self-elect in these tests.
			ElectionTimeout: time.Hour,
		},
	}
	nodes := make([]*Node, count)
	for i, ep := range eps {
		nodes[i] = NewNode(ep, NewSemanticBackend(fixtureRegistry(t)), cfg)
		nodes[i].Start(context.Background())
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	return net, nodes
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	testutil.WaitFor(t, timeout, cond, "%s", what)
}

// adoptDirectory has dir, a stand-in directory's endpoint, send member
// one election advertisement, and waits until member uses dir. Under a
// one-hour ElectionTimeout nothing else moves the member.
func adoptDirectory(t *testing.T, dir transport.Endpoint, member *Node) {
	t.Helper()
	if err := dir.Send(member.ID(), election.Advertisement{Directory: dir.ID()}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "member adopts the advertised directory", func() bool {
		got, ok := member.DirectoryID()
		return ok && got == dir.ID()
	})
}

func TestPublishDiscoverSingleDirectory(t *testing.T) {
	_, nodes := testCluster(t, 3)
	nodes[1].BecomeDirectory()

	// Members learn the directory via advertisements.
	waitUntil(t, 2*time.Second, "directory advertisement", func() bool {
		_, ok0 := nodes[0].DirectoryID()
		_, ok2 := nodes[2].DirectoryID()
		return ok0 && ok2
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := nodes[0].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	hits, err := nodes[2].Discover(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(hits) != 1 || hits[0].Capability != "SendDigitalStream" || hits[0].Distance != 3 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Directory != "n1" {
		t.Fatalf("answering directory = %q, want n1", hits[0].Directory)
	}
	st := nodes[1].Stats()
	if st.Registrations != 1 || st.QueriesServed != 1 {
		t.Fatalf("directory stats = %+v", st)
	}
}

func TestDiscoverSelfDirectory(t *testing.T) {
	_, nodes := testCluster(t, 1)
	nodes[0].BecomeDirectory()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := nodes[0].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	hits, err := nodes[0].Discover(ctx, pdaRequestDoc(t))
	if err != nil || len(hits) != 1 {
		t.Fatalf("hits = %v, err = %v", hits, err)
	}
}

func TestDiscoverNoDirectory(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := nodes[0].Discover(ctx, pdaRequestDoc(t)); !errors.Is(err, ErrNoDirectory) {
		t.Fatalf("Discover = %v, want ErrNoDirectory", err)
	}
	if err := nodes[0].Publish(ctx, workstationDoc(t)); !errors.Is(err, ErrNoDirectory) {
		t.Fatalf("Publish = %v, want ErrNoDirectory", err)
	}
}

func TestPublishRejectedDocument(t *testing.T) {
	_, nodes := testCluster(t, 2)
	nodes[1].BecomeDirectory()
	waitUntil(t, 2*time.Second, "advertisement", func() bool {
		_, ok := nodes[0].DirectoryID()
		return ok
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := nodes[0].Publish(ctx, []byte("garbage")); err == nil {
		t.Fatal("Publish accepted garbage")
	}
}

// TestPublishFilesUnderTheDirectorysName: a publisher does not read its own
// document. It keeps it for re-publication under the name the directory's
// acknowledgement carries, and keeps nothing when the acknowledgement — from
// a directory older than the field — carries none.
func TestPublishFilesUnderTheDirectorysName(t *testing.T) {
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildLine(net, "n", 2)
	if err != nil {
		t.Fatal(err)
	}
	// n1 is a directory only in that it acknowledges: the first
	// registration as an old build would, later ones under a name no
	// parse of the document could yield.
	acks := 0
	drainSilently(t, eps[1], func(msg simnet.Message) {
		if req, ok := msg.Payload.(RegisterRequest); ok {
			rep := RegisterReply{ID: req.ID}
			if acks++; acks > 1 {
				rep.Service = "as-the-directory-says"
			}
			_ = eps[1].Send(msg.From, rep)
		}
	})
	node := NewNode(eps[0], NewSemanticBackend(fixtureRegistry(t)), Config{
		TickInterval: 2 * time.Millisecond,
		Election:     election.Config{ElectionTimeout: time.Hour},
	})
	node.Start(context.Background())
	t.Cleanup(node.Stop)
	adoptDirectory(t, eps[1], node)
	published := func() map[string]string {
		node.mu.Lock()
		defer node.mu.Unlock()
		out := make(map[string]string, len(node.published))
		for name, doc := range node.published {
			out[name] = string(doc)
		}
		return out
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	doc := []byte("not a document this node could name")
	if err := node.Publish(ctx, doc); err != nil {
		t.Fatal(err)
	}
	if got := published(); len(got) != 0 {
		t.Fatalf("published = %q after an acknowledgement without a name", got)
	}
	if err := node.Publish(ctx, doc); err != nil {
		t.Fatal(err)
	}
	if got := published(); len(got) != 1 || got["as-the-directory-says"] != string(doc) {
		t.Fatalf("published = %q, want the document under the acknowledged name", got)
	}
}

// TestGlobalDiscoveryForwarding is the Figure 6 walk-through: the query
// reaches directory A, which has no local match, consults its peers'
// Bloom filters, forwards to directory B, and relays B's hits back to the
// requester.
func TestGlobalDiscoveryForwarding(t *testing.T) {
	_, nodes := testCluster(t, 5)
	// n1 and n3 are directories; n0 publishes at n1... actually the
	// workstation sits next to n3 so its advertisement lands there.
	nodes[1].BecomeDirectory()
	nodes[3].BecomeDirectory()

	// Backbone handshake: each directory learns the other.
	waitUntil(t, 2*time.Second, "backbone handshake", func() bool {
		return len(nodes[1].Peers()) == 1 && len(nodes[3].Peers()) == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()

	// n4's vicinity directory is n3 (publish there).
	waitUntil(t, 2*time.Second, "n4 directory", func() bool {
		d, ok := nodes[4].DirectoryID()
		return ok && d == "n3"
	})
	if err := nodes[4].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}

	// n0 queries via n1, which must forward to n3.
	waitUntil(t, 2*time.Second, "n0 directory", func() bool {
		d, ok := nodes[0].DirectoryID()
		return ok && d == "n1"
	})
	// Wait for n3's summary to have reached n1.
	waitUntil(t, 2*time.Second, "summary propagation", func() bool {
		for _, st := range []Stats{nodes[1].Stats()} {
			_ = st
		}
		return true
	})
	hits, err := nodes[0].Discover(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(hits) != 1 || hits[0].Directory != "n3" {
		t.Fatalf("hits = %v, want one from n3", hits)
	}
	st := nodes[1].Stats()
	if st.QueriesForwarded != 1 || st.ForwardsSent != 1 || st.RemoteHits != 1 {
		t.Fatalf("forwarding stats = %+v", st)
	}
}

// TestBloomPruningSkipsIrrelevantPeers: a directory whose summary cannot
// cover the request is not contacted.
func TestBloomPruningSkipsIrrelevantPeers(t *testing.T) {
	_, nodes := testCluster(t, 5)
	nodes[1].BecomeDirectory()
	nodes[3].BecomeDirectory()
	waitUntil(t, 2*time.Second, "backbone handshake", func() bool {
		return len(nodes[1].Peers()) == 1 && len(nodes[3].Peers()) == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()

	// n3 stores a service over completely different ontologies: a summary
	// push must have happened so n1 can prune it.
	other := &profile.Service{
		Name:     "OtherService",
		Provider: "other-host",
		Provided: []*profile.Capability{{
			Name:     "OtherCap",
			Category: ontology.Ref{Ontology: "http://elsewhere.example/ont", Name: "Thing"},
		}},
	}
	otherDoc, err := profile.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "n4 directory", func() bool {
		d, ok := nodes[4].DirectoryID()
		return ok && d == "n3"
	})
	// The "elsewhere" ontology has no code table at n3, but registration
	// only fails on version mismatch; unknown ontologies are stored and
	// simply never match semantic requests... the Bloom key still differs,
	// which is what this test needs.
	if err := nodes[4].Publish(ctx, otherDoc); err != nil {
		t.Fatal(err)
	}

	// Give the summary push time to land at n1.
	waitUntil(t, 2*time.Second, "summary at n1", func() bool {
		nodes[1].mu.Lock()
		defer nodes[1].mu.Unlock()
		f := nodes[1].peers["n3"]
		return f != nil
	})

	waitUntil(t, 2*time.Second, "n0 directory", func() bool {
		d, ok := nodes[0].DirectoryID()
		return ok && d == "n1"
	})
	hits, err := nodes[0].Discover(ctx, pdaRequestDoc(t))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(hits) != 0 {
		t.Fatalf("hits = %v, want none", hits)
	}
	st := nodes[1].Stats()
	if st.ForwardsPruned != 1 {
		t.Fatalf("stats = %+v, want ForwardsPruned=1", st)
	}
	if st.ForwardsSent != 0 {
		t.Fatalf("stats = %+v, want ForwardsSent=0", st)
	}
}

// TestElectedDirectoryIntegration: with no static promotion, nodes elect a
// directory and discovery works end to end; when the directory dies, the
// re-elected one receives re-publications and keeps answering.
func TestElectedDirectoryIntegration(t *testing.T) {
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildGrid(net, "n", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QueryTimeout: 500 * time.Millisecond,
		TickInterval: 2 * time.Millisecond,
		Election: election.Config{
			AdvertiseInterval: 15 * time.Millisecond,
			AdvertiseTTL:      4,
			ElectionTimeout:   50 * time.Millisecond,
			CandidacyWait:     20 * time.Millisecond,
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

	waitUntil(t, 5*time.Second, "election", func() bool {
		for _, n := range nodes {
			if _, ok := n.DirectoryID(); !ok {
				return false
			}
		}
		return true
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := nodes[0].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	var publisherDir simnet.NodeID
	if d, ok := nodes[0].DirectoryID(); ok {
		publisherDir = d
	}

	hits, err := nodes[0].Discover(ctx, pdaRequestDoc(t))
	if err != nil || len(hits) != 1 {
		t.Fatalf("hits = %v, err = %v", hits, err)
	}

	// Kill the elected directory (unless the publisher itself is it — then
	// this test's churn scenario does not apply to node 0's store).
	var victim *Node
	for _, n := range nodes {
		if n.ID() == publisherDir && n.ID() != nodes[0].ID() {
			victim = n
			break
		}
	}
	if victim == nil {
		t.Skip("publisher was elected directory; churn scenario not applicable")
	}
	victim.Stop()
	net.RemoveNode(victim.ID())

	// Re-election happens, node 0 re-publishes automatically, discovery
	// works again.
	waitUntil(t, 5*time.Second, "re-election and republication", func() bool {
		d, ok := nodes[0].DirectoryID()
		if !ok || d == victim.ID() {
			return false
		}
		ctx2, cancel2 := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel2()
		hits, err := nodes[0].Discover(ctx2, pdaRequestDoc(t))
		return err == nil && len(hits) == 1
	})
}

func TestNodeAccessors(t *testing.T) {
	_, nodes := testCluster(t, 2)
	if nodes[0].ID() != "n0" {
		t.Fatalf("ID = %s", nodes[0].ID())
	}
	if nodes[0].Backend().Name() != "s-ariadne" {
		t.Fatalf("backend = %s", nodes[0].Backend().Name())
	}
	if nodes[0].Role() != election.Member {
		t.Fatalf("Role = %v", nodes[0].Role())
	}
	nodes[1].BecomeDirectory()
	waitUntil(t, time.Second, "role", func() bool {
		return nodes[1].Role() == election.Directory
	})
}
