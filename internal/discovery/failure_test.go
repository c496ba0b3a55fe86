package discovery

import (
	"context"
	"testing"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/election"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/simnet"
)

// TestDiscoveryOverLossyNetwork: with 20% per-link loss, clients that
// retry (as any pervasive client must) still publish and discover; the
// protocol itself never wedges.
func TestDiscoveryOverLossyNetwork(t *testing.T) {
	net := simnet.New(simnet.Config{DropRate: 0.2, Seed: 9})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildLine(net, "n", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QueryTimeout: 100 * time.Millisecond,
		TickInterval: 2 * time.Millisecond,
		Election: election.Config{
			AdvertiseInterval: 10 * time.Millisecond,
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
	waitUntil(t, 5*time.Second, "advertisement through loss", func() bool {
		_, ok0 := nodes[0].DirectoryID()
		_, ok2 := nodes[2].DirectoryID()
		return ok0 && ok2
	})

	publish := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()
		return nodes[0].Publish(ctx, workstationDoc(t))
	}
	ok := false
	for attempt := 0; attempt < 20; attempt++ {
		if err := publish(); err == nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("publish never succeeded through 20% loss in 20 attempts")
	}

	found := false
	for attempt := 0; attempt < 20; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		hits, err := nodes[2].Discover(ctx, pdaRequestDoc(t))
		cancel()
		if err == nil && len(hits) == 1 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("discovery never succeeded through 20% loss in 20 attempts")
	}
}

// TestQueryToNonDirectoryFails: a query landing on a node that is not (or
// no longer) a directory is answered with an explicit error, not silence.
func TestQueryToNonDirectoryFails(t *testing.T) {
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildLine(net, "n", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QueryTimeout: 200 * time.Millisecond,
		TickInterval: 2 * time.Millisecond,
		// Pin n1 as the (wrong) static directory: it never promotes.
		StaticDirectory: "n1",
		Election: election.Config{
			AdvertiseInterval: 10 * time.Millisecond,
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
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := nodes[0].Discover(ctx, pdaRequestDoc(t)); err == nil {
		t.Fatal("query to a non-directory should fail explicitly")
	}
}

// TestOntologyEvolution is the Section 3.2 versioning rule end to end:
// after the ontology evolves and the directory re-encodes, advertisements
// still carrying old-version codes are refused until refreshed.
func TestOntologyEvolution(t *testing.T) {
	// Version 1 world.
	mediaV1 := profile.MediaOntology()
	servers := profile.ServersOntology()
	regV1 := codes.NewRegistry()
	regV1.Register(codes.MustEncode(ontology.MustClassify(mediaV1), codes.DefaultParams))
	regV1.Register(codes.MustEncode(ontology.MustClassify(servers), codes.DefaultParams))

	svc := profile.WorkstationService()
	svc.CodeVersions = map[string]string{profile.MediaOntologyURI: "1"}
	docV1, err := profile.Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}

	b1 := NewSemanticBackend(regV1)
	if _, err := b1.Register(docV1); err != nil {
		t.Fatalf("v1 registration: %v", err)
	}

	// The media ontology evolves to version 2 (a new class appears); the
	// directory re-encodes.
	mediaV2 := profile.MediaOntology()
	mediaV2.Version = "2"
	mediaV2.MustAddClass(ontology.Class{Name: "Series", SubClassOf: []string{"VideoResource"}})
	regV2 := codes.NewRegistry()
	regV2.Register(codes.MustEncode(ontology.MustClassify(mediaV2), codes.DefaultParams))
	regV2.Register(codes.MustEncode(ontology.MustClassify(servers), codes.DefaultParams))

	b2 := NewSemanticBackend(regV2)
	if _, err := b2.Register(docV1); err == nil {
		t.Fatal("v2 directory accepted advertisement carrying v1 codes")
	}

	// The service refreshes its codes (per the paper, services
	// periodically check the code version and update).
	svc.CodeVersions[profile.MediaOntologyURI] = "2"
	docV2, err := profile.Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Register(docV2); err != nil {
		t.Fatalf("refreshed advertisement rejected: %v", err)
	}
	hits, err := b2.Query(pdaRequestDoc(t))
	if err != nil || len(hits) != 1 {
		t.Fatalf("post-evolution query: hits=%v err=%v", hits, err)
	}
}
