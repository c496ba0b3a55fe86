package ariadne

import (
	"context"
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

	hits, err := b.Query(mustMarshal(t, sampleDef("request")))
	if err != nil || len(hits) != 1 || hits[0].Service != "svc1" {
		t.Fatalf("hits = %v, err = %v", hits, err)
	}
	if hits[0].Distance != 0 {
		t.Fatalf("syntactic hit distance = %d, want 0", hits[0].Distance)
	}
	if _, err := b.Query([]byte("junk")); err == nil {
		t.Fatal("queried junk")
	}

	// Renamed operation: syntactic match fails.
	renamed := sampleDef("request2")
	renamed.PortTypes[0].Operations[0].Name = "Other"
	hits, err = b.Query(mustMarshal(t, renamed))
	if err != nil || len(hits) != 0 {
		t.Fatalf("renamed hits = %v, err = %v", hits, err)
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
	k, err := b.RequestKey(mustMarshal(t, sampleDef("req")))
	if err != nil || k != "Port" {
		t.Fatalf("RequestKey = %q, %v", k, err)
	}
	if _, err := b.RequestKey([]byte("junk")); err == nil {
		t.Fatal("RequestKey accepted junk")
	}
	name, err := b.ServiceName(mustMarshal(t, sampleDef("svc9")))
	if err != nil || name != "svc9" {
		t.Fatalf("ServiceName = %q, %v", name, err)
	}
	if _, err := b.ServiceName([]byte("junk")); err == nil {
		t.Fatal("ServiceName accepted junk")
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
