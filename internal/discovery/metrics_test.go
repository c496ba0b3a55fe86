package discovery

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sariadne/internal/election"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/simnet"
	"sariadne/internal/telemetry"
)

func memberDoc(t *testing.T, i int) []byte {
	t.Helper()
	svc := &profile.Service{
		Name:     fmt.Sprintf("member-%03d", i),
		Provider: "member-host",
		Provided: []*profile.Capability{{
			Name:     fmt.Sprintf("MemberCap%03d", i),
			Category: ontology.Ref{Ontology: fmt.Sprintf("http://member.example/ont%03d", i), Name: "Thing"},
		}},
	}
	doc, err := profile.Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func absentRequestDoc(t *testing.T, i int) []byte {
	t.Helper()
	svc := &profile.Service{
		Name: fmt.Sprintf("probe-%03d", i),
		Required: []*profile.Capability{{
			Name:     "Want",
			Category: ontology.Ref{Ontology: fmt.Sprintf("http://absent.example/ont%03d", i), Name: "Thing"},
		}},
	}
	doc, err := profile.Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBloomFPRGaugeTracksEstimate drives the evaluation workload through a
// deliberately small summary filter and checks the live false-positive-rate
// gauge (empty forwards / probes of absent keys) against the analytic
// (1-e^(-kn/m))^k estimate carried by the filter itself — the same model
// bloom's TestFalsePositiveRateNearEstimate validates offline.
func TestBloomFPRGaugeTracksEstimate(t *testing.T) {
	const stored = 48  // distinct ontology keys registered at the far directory
	const probes = 200 // queries for keys absent everywhere

	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildLine(net, "n", 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QueryTimeout: 500 * time.Millisecond,
		TickInterval: 2 * time.Millisecond,
		// Small filter so the false-positive rate is large enough to
		// observe in a couple hundred probes (~0.1 at k=2, n=48, m=256).
		BloomBits:   256,
		BloomHashes: 2,
		// Disable reactive refresh: every probe here is a true negative at
		// n3, so the stale-summary heuristic would otherwise fire
		// constantly and add noise.
		StaleRatio: -1,
		Election: election.Config{
			AdvertiseInterval: 20 * time.Millisecond,
			AdvertiseTTL:      2,
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
	nodes[3].BecomeDirectory()
	waitUntil(t, 2*time.Second, "backbone handshake", func() bool {
		return len(nodes[1].Peers()) == 1 && len(nodes[3].Peers()) == 1
	})
	waitUntil(t, 2*time.Second, "directories known", func() bool {
		d0, ok0 := nodes[0].DirectoryID()
		d4, ok4 := nodes[4].DirectoryID()
		return ok0 && d0 == "n1" && ok4 && d4 == "n3"
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < stored; i++ {
		if err := nodes[4].Publish(ctx, memberDoc(t, i)); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	// n1 eventually holds n3's full 48-key summary.
	waitUntil(t, 2*time.Second, "full summary at n1", func() bool {
		nodes[1].mu.Lock()
		defer nodes[1].mu.Unlock()
		ps := nodes[1].peers["n3"]
		return ps != nil && ps.filter != nil && ps.filter.Additions() == stored
	})

	nodes[1].mu.Lock()
	estimate := nodes[1].peers["n3"].filter.EstimateFPR()
	nodes[1].mu.Unlock()
	if estimate < 0.01 {
		t.Fatalf("analytic estimate %v too small for a meaningful comparison", estimate)
	}

	// Clear counters accumulated by earlier tests in this binary so the
	// gauge reflects only this workload's probes.
	telemetry.Default().Reset()

	for i := 0; i < probes; i++ {
		hits, err := nodes[0].Discover(ctx, absentRequestDoc(t, i))
		if err != nil {
			t.Fatalf("Discover %d: %v", i, err)
		}
		if len(hits) != 0 {
			t.Fatalf("Discover %d returned hits %v for an absent key", i, hits)
		}
	}

	// Every probe tested exactly one peer summary: outcomes partition into
	// prunes (true negatives) and empty forwards (false positives).
	fp := forwardEmptyTotal.Value()
	tn := forwardsPrunedTotal.Value()
	if fp+tn != probes {
		t.Fatalf("fp=%d tn=%d, want %d total Bloom probe outcomes", fp, tn, probes)
	}
	measured := bloomFPRGauge.Value()
	if want := float64(fp) / float64(fp+tn); measured != want {
		t.Fatalf("gauge = %v, inconsistent with counters fp=%d tn=%d", measured, fp, tn)
	}
	if measured > 3*estimate+0.01 || measured < estimate/3-0.01 {
		t.Fatalf("measured FPR %v not within tolerance of analytic estimate %v (fp=%d/%d)",
			measured, estimate, fp, probes)
	}
	t.Logf("measured FPR %.4f vs analytic %.4f (fp=%d of %d probes)", measured, estimate, fp, probes)
}
