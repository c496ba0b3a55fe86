package discovery

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sariadne/internal/election"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/simnet"
	"sariadne/internal/transport"
)

// selfSends is an endpoint that counts the frames its node addresses to
// itself. A node delivers to itself on the caller's goroutine, so there
// must be none, of any payload type.
type selfSends struct {
	transport.Endpoint
	n atomic.Int64
}

func (r *selfSends) Send(to transport.Addr, payload any) error {
	if to == r.ID() {
		r.n.Add(1)
	}
	return r.Endpoint.Send(to, payload)
}

// wedge is a backend whose Resolve of one document blocks, the first time,
// until release is closed: a loop serving a forward of it is stuck.
type wedge struct {
	Backend
	doc     []byte
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (w *wedge) Resolve(doc []byte) ([]Hit, []byte, []string, error) {
	if bytes.Equal(doc, w.doc) {
		w.once.Do(func() {
			close(w.entered)
			<-w.release
		})
	}
	return w.Backend.Resolve(doc)
}

// directoryPair starts directories d0 and d1 on a two-node line, over
// selfSends endpoints, with d0's backend passed through wrap. d0 holds
// VideoBox and d1 GameBox, and each holds the other's summary before it
// returns.
func directoryPair(t *testing.T, cfg Config, wrap func(Backend) Backend) ([]*Node, []*selfSends, *simnet.Network) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildLine(net, "d", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Election = election.Config{ElectionTimeout: time.Hour}
	nodes, recs := make([]*Node, 2), make([]*selfSends, 2)
	for i, ep := range eps {
		var b Backend = NewSemanticBackend(fixtureRegistry(t))
		if i == 0 && wrap != nil {
			b = wrap(b)
		}
		recs[i] = &selfSends{Endpoint: ep}
		nodes[i] = NewNode(recs[i], b, cfg)
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
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	for i, doc := range [][]byte{videoOnlyServiceDoc(t), gameOnlyServiceDoc(t)} {
		if err := nodes[i].Publish(ctx, doc); err != nil {
			t.Fatal(err)
		}
	}
	key := twoCapRequest(t).Required[1].OntologyKey()
	waitUntil(t, 2*time.Second, "each directory's summary at the other", func() bool {
		return sees(nodes[0], nodes[1], key) && sees(nodes[1], nodes[0], key)
	})
	return nodes, recs, net
}

// videoRequest asks for the PDA's video capability under a requester name
// of its own: the same question as pdaRequestDoc in other bytes.
func videoRequest(t *testing.T) []byte {
	return requestOf(t, profile.PDAService().Required[0])
}

// holds reports whether n's backend stores an advertisement named service.
func holds(n *Node, service string) bool {
	_, ok := n.Backend().Snapshot()[service]
	return ok
}

// TestNoFrameAddressedToSelf counts the frames any node addresses to
// itself, of any payload type, while it runs the three queries of
// TestRequestParsedOncePerDirectory — answered locally, forwarded whole,
// forwarded in part — then a directory's own publish and withdrawal, its
// lease refresh, and a member's republish once it is promoted: none.
func TestNoFrameAddressedToSelf(t *testing.T) {
	nodes, recs, net := directoryPair(t, Config{QueryTimeout: 2 * time.Second, RefreshInterval: 20 * time.Millisecond}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	game := twoCapRequest(t).Required[1]
	for _, q := range []struct {
		name string
		doc  []byte
		hits int
	}{
		{"answered locally", pdaRequestDoc(t), 1},
		{"forwarded whole", requestOf(t, game), 1},
		{"forwarded in part", twoCapRequestDoc(t), 2},
	} {
		res, err := nodes[0].DiscoverResult(ctx, q.doc)
		if err != nil || len(res.Hits) != q.hits || res.Partial() {
			t.Fatalf("%s: %v, %v; want %d hits", q.name, res, err, q.hits)
		}
	}

	if err := nodes[0].Publish(ctx, serversOnlyDoc(t, "rack")); err != nil || !holds(nodes[0], "rack") {
		t.Fatalf("own publish: %v, stored %v", err, holds(nodes[0], "rack"))
	}
	if err := nodes[0].Deregister(ctx, "rack"); err != nil || holds(nodes[0], "rack") {
		t.Fatalf("own withdrawal: %v, stored %v", err, holds(nodes[0], "rack"))
	}
	regs := nodes[0].Stats().Registrations
	waitUntil(t, 2*time.Second, "d0 refreshes VideoBox's lease with itself", func() bool {
		return nodes[0].Stats().Registrations > regs
	})

	// m publishes at d1, then is promoted: it re-registers its service
	// with itself.
	ep, err := net.AddNode("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Connect("m", "d1"); err != nil {
		t.Fatal(err)
	}
	rec := &selfSends{Endpoint: ep}
	recs = append(recs, rec)
	m := NewNode(rec, NewSemanticBackend(fixtureRegistry(t)),
		Config{Election: election.Config{ElectionTimeout: time.Hour}})
	m.Start(context.Background())
	t.Cleanup(m.Stop)
	adoptDirectory(t, recs[1], m)
	if err := m.Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	m.BecomeDirectory()
	waitUntil(t, 2*time.Second, "m republishes to itself", func() bool {
		return m.Backend().Len() > 0
	})

	for _, r := range recs {
		if n := r.n.Load(); n != 0 {
			t.Errorf("%s addressed %d frames to itself", r.ID(), n)
		}
	}
}

// TestFullInboxCannotSwallowAClientQuery: d0's loop is stuck serving a
// forward from d1 and its inbox is full of d1's frames. A query d0 answers
// locally, one no peer's summary passes, and d0's own publish and
// withdrawal still come back answered: none of them needs the loop, so
// none waits out the caller's deadline.
func TestFullInboxCannotSwallowAClientQuery(t *testing.T) {
	w := &wedge{doc: videoRequest(t), entered: make(chan struct{}), release: make(chan struct{})}
	nodes, recs, _ := directoryPair(t, Config{QueryTimeout: 500 * time.Millisecond}, func(b Backend) Backend {
		w.Backend = b
		return w
	})
	// d1 asks for what only d0 holds; d0's loop takes the forward and
	// blocks in the match.
	forwarded := make(chan struct{})
	go func() {
		defer close(forwarded)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = nodes[1].DiscoverResult(ctx, w.doc)
	}()
	t.Cleanup(func() {
		close(w.release)
		<-forwarded
	})
	<-w.entered
	inbox := recs[0].Inbox()
	for len(inbox) < cap(inbox) {
		if err := recs[1].Endpoint.Send("d0", SummaryRequest{From: "d1"}); err != nil {
			t.Fatal(err)
		}
	}

	host := &profile.Capability{Name: "NeedHost", Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: "GameServer"}}
	if sees(nodes[0], nodes[1], host.OntologyKey()) {
		t.Fatal("d1's summary passes the servers-only key: the test would forward")
	}
	for _, q := range []struct {
		name string
		doc  []byte
		want []string
	}{
		{"answered locally", pdaRequestDoc(t), []string{"VideoBox@d0"}},
		{"no peer's summary passes", requestOf(t, host), nil},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		res, err := nodes[0].DiscoverResult(ctx, q.doc)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		var got []string
		for _, h := range res.Hits {
			got = append(got, h.Service+"@"+h.Directory)
		}
		if !reflect.DeepEqual(got, q.want) || res.Partial() {
			t.Fatalf("%s: hits %v, unreachable %v; want %v", q.name, got, res.Unreachable, q.want)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := nodes[0].Publish(ctx, serversOnlyDoc(t, "rack")); err != nil || !holds(nodes[0], "rack") {
		t.Fatalf("own publish: %v, stored %v", err, holds(nodes[0], "rack"))
	}
	if err := nodes[0].Deregister(ctx, "rack"); err != nil || holds(nodes[0], "rack") {
		t.Fatalf("own withdrawal: %v, stored %v", err, holds(nodes[0], "rack"))
	}
}

// parkedSweep is a backend whose first Deregister of name — the lease
// sweep's — blocks until release is closed, and closes swept once done.
type parkedSweep struct {
	Backend
	name                    string
	once                    sync.Once
	entered, release, swept chan struct{}
}

func (p *parkedSweep) Deregister(name string) bool {
	first := false
	if name == p.name {
		p.once.Do(func() {
			first = true
			close(p.entered)
			<-p.release
		})
	}
	found := p.Backend.Deregister(name)
	if first {
		close(p.swept)
	}
	return found
}

// TestOwnPublishDuringALeaseSweep: a directory's lease on its own
// advertisement runs out, and while the sweep is in its withdrawal the
// directory publishes the name again. The publish is stored after the
// sweep, not withdrawn by it.
func TestOwnPublishDuringALeaseSweep(t *testing.T) {
	p := &parkedSweep{Backend: NewSemanticBackend(fixtureRegistry(t)), name: "rack",
		entered: make(chan struct{}), release: make(chan struct{}), swept: make(chan struct{})}
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	ep, err := net.AddNode("d0")
	if err != nil {
		t.Fatal(err)
	}
	d0 := NewNode(ep, p, Config{TickInterval: 5 * time.Millisecond, LeaseTTL: 300 * time.Millisecond,
		RefreshInterval: never, Election: election.Config{ElectionTimeout: time.Hour}})
	d0.Start(context.Background())
	t.Cleanup(d0.Stop)
	d0.BecomeDirectory()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d0.Publish(ctx, serversOnlyDoc(t, "rack")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.entered:
	case <-ctx.Done():
		t.Fatal("the lease never expired")
	}

	published := make(chan error, 1)
	go func() { published <- d0.Publish(ctx, serversOnlyDoc(t, "rack")) }()
	// A publish that does not wait for the sweep gets this long to finish
	// first: the interleaving in which the sweep withdraws it. One that
	// waits makes the test pay the grace once.
	early := false
	select {
	case err = <-published:
		early = true
	case <-time.After(100 * time.Millisecond):
	}
	close(p.release)
	if !early {
		err = <-published
	}
	<-p.swept
	if err != nil || !holds(d0, "rack") {
		t.Fatalf("publish during the sweep: %v, stored %v; want it stored", err, holds(d0, "rack"))
	}
}

// TestOriginQueriesBesideTheLoop: d0 answers its own clients on their
// goroutines while its loop serves d1's forwards and a stream of
// publishes. Eight clients ask d0 a question it answers locally or one it
// forwards to d1, d1 forwards its own to d0, and what is published matches
// none of them: every answer equals the one the same query got alone.
func TestOriginQueriesBesideTheLoop(t *testing.T) {
	const clients, rounds = 8, 20
	nodes, recs, _ := directoryPair(t, Config{QueryTimeout: 5 * time.Second}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type query struct {
		at   *Node
		doc  []byte
		want []Hit
	}
	queries := []*query{
		{at: nodes[0], doc: pdaRequestDoc(t)},
		{at: nodes[0], doc: requestOf(t, twoCapRequest(t).Required[1])},
		{at: nodes[1], doc: videoRequest(t)},
	}
	for _, q := range queries {
		res, err := q.at.DiscoverResult(ctx, q.doc)
		if err != nil || len(res.Hits) != 1 || res.Partial() {
			t.Fatalf("alone: %v, %v", res, err)
		}
		q.want = res.Hits
	}
	if queries[0].want[0].Directory != "d0" || queries[1].want[0].Directory != "d1" || queries[2].want[0].Directory != "d0" {
		t.Fatalf("answers %v %v %v: want d0, d1 and d0 to answer", queries[0].want, queries[1].want, queries[2].want)
	}

	ask := func(q *query) {
		res, err := q.at.DiscoverResult(ctx, q.doc)
		if err != nil || res.Partial() || !reflect.DeepEqual(res.Hits, q.want) {
			t.Errorf("%s asked beside the loop: %v, %v; want %v", q.at.ID(), res, err, q.want)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				ask(queries[c%2])
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range rounds {
			ask(queries[2])
		}
	}()
	go func() {
		defer wg.Done()
		for i := range rounds {
			if err := nodes[0].Publish(ctx, serversOnlyDoc(t, fmt.Sprintf("rack%02d", i))); err != nil {
				t.Errorf("publish %d: %v", i, err)
			}
		}
	}()
	wg.Wait()
	for i, r := range recs {
		if n := r.n.Load(); n != 0 {
			t.Errorf("d%d addressed %d query frames to itself", i, n)
		}
	}
}
