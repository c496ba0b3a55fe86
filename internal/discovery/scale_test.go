package discovery

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/election"
	"sariadne/internal/gen"
	"sariadne/internal/profile"
	"sariadne/internal/simnet"
)

// TestLargeNetworkIntegration runs the whole protocol at a size closer to
// a real deployment: a 7×7 grid, elections only (no static directories),
// 30 services published from scattered nodes, discovery issued from every
// corner. Skipped with -short.
func TestLargeNetworkIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("large integration test skipped in -short mode")
	}

	w := gen.MustNewWorkload(gen.WorkloadConfig{
		Ontologies: 10,
		Services:   30,
		Seed:       17,
	})
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}

	net := simnet.New(simnet.Config{Seed: 3})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildGrid(net, "n", 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QueryTimeout:     time.Second,
		TickInterval:     2 * time.Millisecond,
		AnnounceInterval: 50 * time.Millisecond,
		// The 7x7 grid has diameter 12; the default AnnounceTTL of 8 would
		// leave far-corner directory pairs permanently unaware of each
		// other whenever election timing puts directories there, and the
		// backbone-settle wait below would never finish.
		AnnounceTTL: 13,
		Election: election.Config{
			AdvertiseInterval: 20 * time.Millisecond,
			AdvertiseTTL:      2,
			ElectionTimeout:   80 * time.Millisecond,
			CandidacyWait:     30 * time.Millisecond,
		},
	}
	nodes := make([]*Node, len(eps))
	for i, ep := range eps {
		nodes[i] = NewNode(ep, NewSemanticBackend(reg), cfg)
		nodes[i].Start(context.Background())
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})

	waitUntil(t, 15*time.Second, "all nodes covered by a directory", func() bool {
		for _, n := range nodes {
			if _, ok := n.DirectoryID(); !ok {
				return false
			}
		}
		return true
	})
	directories := 0
	for _, n := range nodes {
		if n.Role() == election.Directory {
			directories++
		}
	}
	if directories < 2 {
		t.Fatalf("only %d directories elected on a 7x7 grid with TTL 2", directories)
	}
	t.Logf("elected %d directories", directories)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, doc := range w.ServiceDocs {
		publisher := nodes[(i*7)%len(nodes)]
		ok := false
		for attempt := 0; attempt < 5 && !ok; attempt++ {
			pctx, pcancel := context.WithTimeout(ctx, time.Second)
			if err := publisher.Publish(pctx, doc); err == nil {
				ok = true
			}
			pcancel()
		}
		if !ok {
			t.Fatalf("service %d never published", i)
		}
	}
	// Summaries settle once every directory has heard from every other
	// directory on the backbone; residual filter staleness is absorbed by
	// the per-query retries below. The budget matches the election wait —
	// under the race detector a 49-node grid needs well over 5s.
	waitUntil(t, 15*time.Second, "directory backbone to settle", func() bool {
		var dirs []*Node
		for _, n := range nodes {
			if n.Role() == election.Directory {
				dirs = append(dirs, n)
			}
		}
		if len(dirs) < 2 {
			return false
		}
		for _, d := range dirs {
			if len(d.Peers()) < len(dirs)-1 {
				return false
			}
		}
		return true
	})

	success := 0
	const queries = 30
	for q := 0; q < queries; q++ {
		reqDoc, err := profile.Marshal(&profile.Service{
			Name:     fmt.Sprintf("req%d", q),
			Required: []*profile.Capability{w.Request(q%30, 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		from := nodes[(q*11)%len(nodes)]
		for attempt := 0; attempt < 3; attempt++ {
			qctx, qcancel := context.WithTimeout(ctx, time.Second)
			hits, err := from.Discover(qctx, reqDoc)
			qcancel()
			if err == nil && len(hits) > 0 {
				success++
				break
			}
			//sdplint:ignore sleeptest retry backoff between query attempts, not a synchronization wait
			time.Sleep(50 * time.Millisecond)
		}
	}
	if success < queries*9/10 {
		t.Fatalf("only %d/%d queries resolved", success, queries)
	}
	t.Logf("%d/%d queries resolved across the backbone", success, queries)
}
