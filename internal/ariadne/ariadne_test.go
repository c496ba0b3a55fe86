package ariadne

import (
	"context"
	"slices"
	"sort"
	"testing"
	"time"

	"sariadne/internal/discovery"
	"sariadne/internal/election"
	"sariadne/internal/gen"
	"sariadne/internal/simnet"
	"sariadne/internal/testutil"
	"sariadne/internal/wsdl"
)

func sampleDef(name string) *wsdl.Definition {
	return &wsdl.Definition{
		Name:            name,
		TargetNamespace: "http://x/" + name,
		Messages: []wsdl.Message{
			{Name: "In", Parts: []wsdl.Part{{Name: "a", Type: "xsd:string"}}},
			{Name: "Out", Parts: []wsdl.Part{{Name: "b", Type: "xsd:int"}}},
		},
		PortTypes: []wsdl.PortType{
			{Name: "Port", Operations: []wsdl.Operation{{Name: "Op", Input: "In", Output: "Out"}}},
		},
	}
}

func mustMarshal(t *testing.T, d *wsdl.Definition) []byte {
	t.Helper()
	data, err := wsdl.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestBackendRegisterQuery(t *testing.T) {
	b := NewBackend()
	if b.Name() != "ariadne" {
		t.Fatalf("Name = %q", b.Name())
	}
	name, err := b.Register(mustMarshal(t, sampleDef("svc1")))
	if err != nil || name != "svc1" {
		t.Fatalf("Register = %q, %v", name, err)
	}
	if _, err := b.Register([]byte("junk")); err == nil {
		t.Fatal("registered junk")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d", b.Len())
	}

	hits, rest, keys, err := b.Resolve(mustMarshal(t, sampleDef("request")))
	if err != nil || len(hits) != 1 || hits[0].Service != "svc1" {
		t.Fatalf("hits = %v, err = %v", hits, err)
	}
	if hits[0].Distance != 0 {
		t.Fatalf("syntactic hit distance = %d, want 0", hits[0].Distance)
	}
	if rest != nil || keys != nil {
		t.Fatalf("an answered request left rest %q, keys %q", rest, keys)
	}
	if _, _, _, err := b.Resolve([]byte("junk")); err == nil {
		t.Fatal("queried junk")
	}

	// Renamed operation: syntactic match fails.
	renamed := sampleDef("request2")
	renamed.PortTypes[0].Operations[0].Name = "Other"
	doc := mustMarshal(t, renamed)
	hits, rest, keys, err = b.Resolve(doc)
	if err != nil || len(hits) != 0 {
		t.Fatalf("renamed hits = %v, err = %v", hits, err)
	}
	if &rest[0] != &doc[0] || len(rest) != len(doc) || len(keys) != 1 || keys[0] != "Port" {
		t.Fatalf("an unanswered request left rest %q, keys %q; want the request itself, probed by its port type", rest, keys)
	}
}

func TestBackendReRegisterReplaces(t *testing.T) {
	b := NewBackend()
	doc := mustMarshal(t, sampleDef("svc1"))
	for i := 0; i < 3; i++ {
		if _, err := b.Register(doc); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d after re-registrations, want 1", b.Len())
	}
}

func TestBackendDeregister(t *testing.T) {
	b := NewBackend()
	if _, err := b.Register(mustMarshal(t, sampleDef("svc1"))); err != nil {
		t.Fatal(err)
	}
	if !b.Deregister("svc1") || b.Deregister("svc1") {
		t.Fatal("Deregister semantics wrong")
	}
}

func TestBackendKeys(t *testing.T) {
	b := NewBackend()
	if _, err := b.Register(mustMarshal(t, sampleDef("svc1"))); err != nil {
		t.Fatal(err)
	}
	keys := b.Keys()
	if len(keys) != 1 || keys[0] != "Port" {
		t.Fatalf("Keys = %v", keys)
	}
	// A directory without the description probes its peers with that key;
	// a request with no port type falls back to its own name.
	_, _, probe, err := NewBackend().Resolve(mustMarshal(t, sampleDef("req")))
	if err != nil || len(probe) != 1 || probe[0] != "Port" {
		t.Fatalf("probe keys = %q, %v", probe, err)
	}
	bare := sampleDef("req")
	bare.PortTypes = nil
	_, _, probe, err = NewBackend().Resolve(mustMarshal(t, bare))
	if err != nil || len(probe) != 1 || probe[0] != "req" {
		t.Fatalf("probe keys of a request without port types = %q, %v", probe, err)
	}
}

// TestResolveEqualsQueryPlusSubset is the semantic backend's table of the
// same name for the syntactic one: against directories holding none, some
// and all of a generated pool, Resolve's hits are the stored descriptions
// that satisfy the required interface, by name; a request is answered whole
// or not at all, so what is left is nothing or the caller's own bytes,
// probed by the request's port type.
func TestResolveEqualsQueryPlusSubset(t *testing.T) {
	w := gen.MustNewWorkload(gen.WorkloadConfig{Ontologies: 3, Services: 8, Seed: 23})
	for _, dir := range []struct {
		name   string
		stored []*wsdl.Definition
	}{
		{"none", nil},
		{"some", w.Definitions[:4]},
		{"all", w.Definitions},
	} {
		b := NewBackend()
		for _, d := range dir.stored {
			if _, err := b.Register(mustMarshal(t, d)); err != nil {
				t.Fatal(err)
			}
		}
		answered := 0
		for i := range w.Definitions {
			req := w.WSDLRequest(i)
			var want []string
			for _, d := range dir.stored {
				if wsdl.Satisfies(d, req) {
					want = append(want, d.Name)
				}
			}
			sort.Strings(want)

			doc := mustMarshal(t, req)
			hits, rest, keys, err := b.Resolve(doc)
			if err != nil {
				t.Fatalf("%s/%d: %v", dir.name, i, err)
			}
			var got []string
			for _, h := range hits {
				if h.For != req.Name || h.Distance != 0 {
					t.Errorf("%s/%d: hit %+v, want one for %s at distance 0", dir.name, i, h, req.Name)
				}
				got = append(got, h.Service)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s/%d: hits = %v, want %v", dir.name, i, got, want)
			}
			if len(want) > 0 {
				answered++
				if rest != nil || keys != nil {
					t.Errorf("%s/%d: an answered request left rest %q, keys %q", dir.name, i, rest, keys)
				}
				continue
			}
			if len(rest) != len(doc) || &rest[0] != &doc[0] {
				t.Errorf("%s/%d: an unanswered request's rest is not the caller's document", dir.name, i)
			}
			if !slices.Equal(keys, []string{req.PortTypes[0].Name}) {
				t.Errorf("%s/%d: keys = %q, want the port type %q", dir.name, i, keys, req.PortTypes[0].Name)
			}
		}
		if wantAnswered := len(dir.stored); answered < wantAnswered {
			t.Errorf("%s: %d requests answered, want at least the %d whose service is stored", dir.name, answered, wantAnswered)
		}
	}
}

// TestAriadneOverProtocolShell runs the syntactic backend through the same
// discovery.Node protocol as S-Ariadne: publish on one node, discover from
// another.
func TestAriadneOverProtocolShell(t *testing.T) {
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildLine(net, "n", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := discovery.Config{
		QueryTimeout: 500 * time.Millisecond,
		TickInterval: 2 * time.Millisecond,
		Election: election.Config{
			AdvertiseInterval: 15 * time.Millisecond,
			AdvertiseTTL:      3,
			ElectionTimeout:   time.Hour,
		},
	}
	nodes := make([]*discovery.Node, len(eps))
	for i, ep := range eps {
		nodes[i] = discovery.NewNode(ep, NewBackend(), cfg)
		nodes[i].Start(context.Background())
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	nodes[1].BecomeDirectory()

	testutil.WaitFor(t, 2*time.Second, func() bool {
		_, ok0 := nodes[0].DirectoryID()
		_, ok2 := nodes[2].DirectoryID()
		return ok0 && ok2
	}, "directory advertisement")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w := gen.MustNewWorkload(gen.WorkloadConfig{Ontologies: 3, Services: 5, Seed: 11})
	for i := range w.Definitions {
		doc, err := wsdl.Marshal(w.Definitions[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].Publish(ctx, doc); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	reqDoc, err := wsdl.Marshal(w.WSDLRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	hits, err := nodes[2].Discover(ctx, reqDoc)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	found := false
	for _, h := range hits {
		if h.Service == w.Definitions[2].Name {
			found = true
		}
	}
	if !found {
		t.Fatalf("hits = %v, want %s", hits, w.Definitions[2].Name)
	}
}
