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

// selfSends is an endpoint that counts the query frames its node
// addresses to itself. A directory answers its own client on the
// caller's goroutine, so there must be none.
type selfSends struct {
	transport.Endpoint
	n atomic.Int64
}

func (r *selfSends) Send(to transport.Addr, payload any) error {
	switch payload.(type) {
	case QueryRequest, QueryReply:
		if to == r.ID() {
			r.n.Add(1)
		}
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
func directoryPair(t *testing.T, cfg Config, wrap func(Backend) Backend) ([]*Node, []*selfSends, []*simnet.Endpoint) {
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
	return nodes, recs, eps
}

// videoRequest asks for the PDA's video capability under a requester name
// of its own: the same question as pdaRequestDoc in other bytes.
func videoRequest(t *testing.T) []byte {
	return requestOf(t, profile.PDAService().Required[0])
}

// TestNoQueryFrameAddressedToSelf runs the three queries of
// TestRequestParsedOncePerDirectory — answered locally, forwarded whole,
// forwarded in part — and counts the query frames either directory
// addressed to itself: none.
func TestNoQueryFrameAddressedToSelf(t *testing.T) {
	nodes, recs, _ := directoryPair(t, Config{QueryTimeout: 2 * time.Second}, nil)
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
	for i, r := range recs {
		if n := r.n.Load(); n != 0 {
			t.Errorf("d%d addressed %d query frames to itself", i, n)
		}
	}
}

// TestFullInboxCannotSwallowAClientQuery: d0's loop is stuck serving a
// forward from d1 and its inbox is full of d1's frames. A query d0 answers
// locally, and one no peer's summary passes, still come back answered:
// neither needs the loop, so neither waits out the caller's deadline.
func TestFullInboxCannotSwallowAClientQuery(t *testing.T) {
	w := &wedge{doc: videoRequest(t), entered: make(chan struct{}), release: make(chan struct{})}
	nodes, _, eps := directoryPair(t, Config{QueryTimeout: 500 * time.Millisecond}, func(b Backend) Backend {
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
	inbox := eps[0].Inbox()
	for len(inbox) < cap(inbox) {
		if err := eps[1].Send("d0", SummaryRequest{From: "d1"}); err != nil {
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
