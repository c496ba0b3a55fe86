package discovery

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"sariadne/internal/bloom"
	"sariadne/internal/election"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/simnet"
	"sariadne/internal/transport"
)

// pushRecorder is the first directory's endpoint, noting every summary
// and every forwarded request the node hands it. The backbone's opening
// handshake is still in flight when a test starts, so the process-wide
// push counter cannot tell a test's pushes from it; what one node sent,
// and with which bits, can.
type pushRecorder struct {
	transport.Endpoint
	mu       sync.Mutex
	pushes   []recordedPush // guarded by mu
	forwards [][]byte       // guarded by mu
}

type recordedPush struct {
	to transport.Addr
	SummaryPush
}

func (r *pushRecorder) Send(to transport.Addr, payload any) error {
	switch p := payload.(type) {
	case SummaryPush:
		r.mu.Lock()
		r.pushes = append(r.pushes, recordedPush{to, p})
		r.mu.Unlock()
	case QueryRequest:
		if p.Forwarded {
			r.mu.Lock()
			r.forwards = append(r.forwards, p.Doc)
			r.mu.Unlock()
		}
	}
	return r.Endpoint.Send(to, payload)
}

func (r *pushRecorder) sent() []recordedPush {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]recordedPush(nil), r.pushes...)
}

// forwarded returns the documents of the requests the node forwarded, as
// the slices it handed to the transport.
func (r *pushRecorder) forwarded() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.forwards...)
}

// backbone starts a line of directories that all know each other and
// records the summaries the first one sends. Tests of the summary path
// pass a tick and an announce interval long enough that neither happens
// unless the test is about it: what then reaches a peer was sent by the
// mutation itself.
func backbone(t *testing.T, count int, cfg Config) (*pushRecorder, []*Node) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildLine(net, "d", count)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Election = election.Config{ElectionTimeout: time.Hour}
	rec := &pushRecorder{Endpoint: eps[0]}
	nodes := make([]*Node, count)
	for i, ep := range eps {
		var tep transport.Endpoint = ep
		if i == 0 {
			tep = rec
		}
		nodes[i] = NewNode(tep, NewSemanticBackend(fixtureRegistry(t)), cfg)
		nodes[i].Start(context.Background())
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	for _, n := range nodes {
		n.BecomeDirectory()
	}
	waitUntil(t, 2*time.Second, "every directory knows every other", func() bool {
		for _, n := range nodes {
			if len(n.Peers()) != count-1 {
				return false
			}
		}
		return true
	})
	return rec, nodes
}

// serversOnlyDoc advertises one capability whose concepts all come from
// the servers ontology: an ontology-set key of its own.
func serversOnlyDoc(t *testing.T, name string) []byte {
	t.Helper()
	doc, err := profile.Marshal(&profile.Service{Name: name, Provided: []*profile.Capability{{
		Name:     "Host",
		Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: "GameServer"},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// workstationNamed is the fixture workstation under another name: one
// more advertisement under the key the fixture already has.
func workstationNamed(t *testing.T, name string) []byte {
	t.Helper()
	svc := profile.WorkstationService()
	svc.Name = name
	doc, err := profile.Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// peerView is what node holds about the directory from.
func peerView(node, from *Node) (ps peerState) {
	node.mu.Lock()
	defer node.mu.Unlock()
	if p := node.peers[from.ID()]; p != nil {
		ps = *p
	}
	return ps
}

func sees(node, from *Node, key string) bool {
	ps := peerView(node, from)
	return ps.filter != nil && ps.filter.Test(key)
}

const never = time.Hour

// A publish that adds an ontology-set key is handed to the transport for
// every peer before RefreshSummary returns, and needs no tick to arrive.
func TestNewKeyIsPushedBeforeRefreshSummaryReturns(t *testing.T) {
	rec, nodes := backbone(t, 3, Config{TickInterval: never, AnnounceInterval: never})
	key := profile.OntologySetKey([]string{profile.ServersOntologyURI})

	if _, err := nodes[0].Backend().Register(serversOnlyDoc(t, "games")); err != nil {
		t.Fatal(err)
	}
	nodes[0].RefreshSummary()
	told := make(map[transport.Addr]bool)
	for _, p := range rec.sent() {
		if f, err := bloom.Unmarshal(p.Filter); err == nil && f.Test(key) && p.Count == 1 {
			told[p.to] = true
		}
	}
	for _, peer := range nodes[1:] {
		if !told[peer.ID()] {
			t.Fatalf("RefreshSummary returned before %s was sent the new key", peer.ID())
		}
	}
	for _, peer := range nodes[1:] {
		waitUntil(t, 2*time.Second, "key at "+string(peer.ID()), func() bool { return sees(peer, nodes[0], key) })
		if got := peerView(peer, nodes[0]).entries; got != 1 {
			t.Errorf("%s shows %d entries for d0, want 1", peer.ID(), got)
		}
	}
}

// Publishes under a key the summary already has cost pushes per tick, not
// per publish, and the peers' entry counts converge with no further
// mutation. The node's own timer never fires: the test ticks, so the number
// of ticks is a count and not an estimate from the wall clock.
func TestCountOnlyPublishesArePushedPerTick(t *testing.T) {
	const publishes, ticks = 200, 10
	rec, nodes := backbone(t, 3, Config{TickInterval: never, AnnounceInterval: never})
	backend := nodes[0].Backend()
	if _, err := backend.Register(workstationNamed(t, "ws-first")); err != nil {
		t.Fatal(err)
	}
	nodes[0].RefreshSummary()

	pushes := len(rec.sent())
	for i := 0; i < publishes; i++ {
		if _, err := backend.Register(workstationNamed(t, fmt.Sprintf("ws%03d", i))); err != nil {
			t.Fatal(err)
		}
		nodes[0].RefreshSummary()
		if (i+1)%(publishes/ticks) == 0 {
			nodes[0].tick()
		}
	}
	for _, peer := range nodes[1:] {
		waitUntil(t, 2*time.Second, "entry count at "+string(peer.ID()), func() bool {
			return peerView(peer, nodes[0]).entries == backend.Len()
		})
	}
	// Every tick found the count moved and pushed it to both peers; beyond
	// that only the opening handshake may still have owed each peer two
	// replies. Per publish it would be 400.
	if got, least, most := len(rec.sent())-pushes, 2*ticks, 2*ticks+4; got < least || got > most {
		t.Errorf("%d publishes under one key over %d ticks: %d summary pushes, want %d to %d", publishes, ticks, got, least, most)
	}

	// A mutation that moves neither bits nor count sends nothing at all.
	pushes = len(rec.sent())
	if _, err := backend.Register(workstationNamed(t, "ws000")); err != nil {
		t.Fatal(err)
	}
	nodes[0].RefreshSummary()
	nodes[0].tick()
	if d := len(rec.sent()) - pushes; d != 0 {
		t.Errorf("re-publishing a stored advertisement sent %d summary pushes", d)
	}
}

// Withdrawing the last advertisement under a key clears the key at every
// peer at once — by deregistration over the backbone and by lease expiry —
// where it used to linger until some later registration pushed.
func TestWithdrawingLastAdvertClearsKeyAtPeers(t *testing.T) {
	key := profile.OntologySetKey([]string{profile.ServersOntologyURI})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	t.Run("deregister", func(t *testing.T) {
		_, nodes := backbone(t, 3, Config{TickInterval: never, AnnounceInterval: never})
		if err := nodes[0].Publish(ctx, workstationDoc(t)); err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].Publish(ctx, serversOnlyDoc(t, "games")); err != nil {
			t.Fatal(err)
		}
		for _, peer := range nodes[1:] {
			waitUntil(t, 2*time.Second, "key at "+string(peer.ID()), func() bool { return sees(peer, nodes[0], key) })
		}
		if err := nodes[0].Deregister(ctx, "games"); err != nil {
			t.Fatal(err)
		}
		for _, peer := range nodes[1:] {
			waitUntil(t, 2*time.Second, "key cleared at "+string(peer.ID()), func() bool {
				ps := peerView(peer, nodes[0])
				return !ps.filter.Test(key) && ps.entries == nodes[0].Backend().Len()
			})
		}
	})

	t.Run("lease expiry", func(t *testing.T) {
		_, nodes := backbone(t, 3, Config{TickInterval: 5 * time.Millisecond, AnnounceInterval: never,
			LeaseTTL: 100 * time.Millisecond, RefreshInterval: never})
		if err := nodes[0].Publish(ctx, serversOnlyDoc(t, "games")); err != nil {
			t.Fatal(err)
		}
		for _, peer := range nodes[1:] {
			waitUntil(t, 2*time.Second, "key at "+string(peer.ID()), func() bool { return sees(peer, nodes[0], key) })
		}
		for _, peer := range nodes[1:] {
			waitUntil(t, 2*time.Second, "expired key cleared at "+string(peer.ID()), func() bool {
				ps := peerView(peer, nodes[0])
				return !ps.filter.Test(key) && ps.entries == 0
			})
		}
	})
}
