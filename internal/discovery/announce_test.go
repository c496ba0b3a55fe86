package discovery

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"sariadne/internal/election"
	"sariadne/internal/simnet"
	"sariadne/internal/transport"
)

// seedTable is a simulated endpoint with the peer table a socket transport
// keeps (transport.PeerLister): the seeds it was started with. It counts
// the announcements the node broadcasts through it.
type seedTable struct {
	transport.Endpoint
	seeds []transport.Addr

	mu        sync.Mutex
	announces int // guarded by mu
}

func (s *seedTable) Peers() []transport.Peer {
	out := make([]transport.Peer, len(s.seeds))
	for i, a := range s.seeds {
		out[i].Addr = a
	}
	return out
}

func (s *seedTable) Broadcast(ttl int, payload any) (int, error) {
	if _, ok := payload.(DirectoryAnnounce); ok {
		s.mu.Lock()
		s.announces++
		s.mu.Unlock()
	}
	return s.Endpoint.Broadcast(ttl, payload)
}

func (s *seedTable) announced() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.announces
}

// lateSeed starts two directories, early and seed, with the seed down: it
// has not bound its socket yet. Only early knows the other, as a seed of
// its transport; the seed has no peer table and announced its promotion
// into the void, so early's announcements are the only way the two meet.
// Neither node's timer fires: the test ticks.
func lateSeed(t *testing.T, cfg Config) (net *simnet.Network, early, seed *Node, table *seedTable) {
	t.Helper()
	net = simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildLine(net, "d", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Election = election.Config{ElectionTimeout: time.Hour}
	net.SetNodeDown(eps[1].ID(), true)
	table = &seedTable{Endpoint: eps[0], seeds: []transport.Addr{eps[1].ID()}}
	early = NewNode(table, NewSemanticBackend(fixtureRegistry(t)), cfg)
	seed = NewNode(eps[1], NewSemanticBackend(fixtureRegistry(t)), cfg)
	for _, n := range []*Node{early, seed} {
		n.Start(context.Background())
		t.Cleanup(n.Stop)
		n.BecomeDirectory()
	}
	return net, early, seed, table
}

// A directory's announcement to a seed that has not bound its socket is
// lost. Once the seed is up, the two know each other within five ticks of
// the directory's, not an AnnounceInterval later: while a transport peer
// has sent it no summary, the directory announces on every tick.
func TestLateSeedJoinsWithinFiveTicks(t *testing.T) {
	net, early, seed, table := lateSeed(t, Config{TickInterval: never, AnnounceInterval: never})
	early.tick() // the first tick after promotion announces anyway; lost too
	net.SetNodeDown(seed.ID(), false)
	for range 5 {
		early.tick()
	}
	waitUntil(t, 2*time.Second, "the two directories to exchange summaries", func() bool {
		return peerView(early, seed).filter != nil && peerView(seed, early).filter != nil
	})
	// Met: early's ticks announce once per AnnounceInterval again.
	before := table.announced()
	for range 5 {
		early.tick()
	}
	if n := table.announced() - before; n != 0 {
		t.Errorf("with every seed heard from, 5 ticks sent %d announcements", n)
	}
}

// While the seed stays away the gap between announcements doubles, in
// ticks, until it reaches AnnounceInterval: a dead seed costs a directory
// no more announcements than before, once the first few ticks are past.
func TestAnnouncementsBackOffToTheInterval(t *testing.T) {
	const tick = time.Minute // the clock never makes an announcement due
	_, early, _, table := lateSeed(t, Config{TickInterval: tick, AnnounceInterval: 10 * tick})
	var at []int
	for i := 1; i <= 60; i++ {
		before := table.announced()
		early.tick()
		if table.announced() > before {
			at = append(at, i)
		}
	}
	// Tick 1 is the interval's first (no announcement yet on the clock);
	// then gaps of 1, 2, 4, 8 ticks, and 16 — the first gap of at least the
	// interval's 10 ticks — from then on.
	if want := []int{1, 2, 4, 8, 16, 32, 48}; !slices.Equal(at, want) {
		t.Errorf("announced on ticks %v, want %v", at, want)
	}
}
