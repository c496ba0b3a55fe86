package discovery

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"sariadne/internal/election"
	"sariadne/internal/simnet"
)

// TestMobilityChurn stresses the protocol under link churn: while a
// client keeps discovering, random links of a 4×4 grid flap. The protocol
// must neither wedge nor crash, and once the topology stabilizes
// discovery must succeed again.
func TestMobilityChurn(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 21})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildGrid(net, "n", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QueryTimeout:     200 * time.Millisecond,
		TickInterval:     2 * time.Millisecond,
		AnnounceInterval: 40 * time.Millisecond,
		// Periodic re-publication repairs any registration lost while the
		// publisher's directory view flapped during churn.
		LeaseTTL:        2 * time.Second,
		RefreshInterval: 100 * time.Millisecond,
		Election: election.Config{
			AdvertiseInterval: 15 * time.Millisecond,
			AdvertiseTTL:      3,
			ElectionTimeout:   60 * time.Millisecond,
			CandidacyWait:     25 * time.Millisecond,
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

	waitUntil(t, 5*time.Second, "initial election", func() bool {
		for _, n := range nodes {
			if _, ok := n.DirectoryID(); !ok {
				return false
			}
		}
		return true
	})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	publishOK := false
	for attempt := 0; attempt < 10 && !publishOK; attempt++ {
		pctx, pcancel := context.WithTimeout(ctx, 300*time.Millisecond)
		publishOK = nodes[5].Publish(pctx, workstationDoc(t)) == nil
		pcancel()
	}
	if !publishOK {
		t.Fatal("initial publish failed")
	}

	// Churn phase: flap random internal links while querying. Grid links
	// are (r,c)-(r,c+1) and (r,c)-(r+1,c); pick from that set.
	type link struct{ a, b simnet.NodeID }
	var links []link
	id := func(r, c int) simnet.NodeID {
		return eps[r*4+c].ID()
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if c+1 < 4 {
				links = append(links, link{id(r, c), id(r, c+1)})
			}
			if r+1 < 4 {
				links = append(links, link{id(r, c), id(r+1, c)})
			}
		}
	}
	rng := rand.New(rand.NewSource(4))
	down := map[int]bool{}
	for round := 0; round < 30; round++ {
		// Flap up to 3 links (never partitioning permanently: they come
		// back in later rounds).
		for k := 0; k < 3; k++ {
			i := rng.Intn(len(links))
			if down[i] {
				if err := net.Connect(links[i].a, links[i].b); err != nil {
					t.Fatal(err)
				}
				delete(down, i)
			} else {
				net.Disconnect(links[i].a, links[i].b)
				down[i] = true
			}
		}
		// Queries during churn may fail; they must not hang past their
		// timeout or panic.
		qctx, qcancel := context.WithTimeout(ctx, 250*time.Millisecond)
		_, _ = nodes[10].Discover(qctx, pdaRequestDoc(t))
		qcancel()
		//sdplint:ignore sleeptest paces link churn so elections overlap topology changes; not a wait for a condition
		time.Sleep(5 * time.Millisecond)
	}
	// Heal every link.
	for i := range links {
		if down[i] {
			if err := net.Connect(links[i].a, links[i].b); err != nil {
				t.Fatal(err)
			}
		}
	}

	// After healing, discovery must work again (allowing time for
	// re-election, re-publication and summary repair; generous timeout so
	// the 10x slowdown of -race runs stays inside it).
	waitUntil(t, 30*time.Second, "recovery after churn", func() bool {
		qctx, qcancel := context.WithTimeout(ctx, 300*time.Millisecond)
		defer qcancel()
		hits, err := nodes[10].Discover(qctx, pdaRequestDoc(t))
		return err == nil && len(hits) == 1
	})
}
