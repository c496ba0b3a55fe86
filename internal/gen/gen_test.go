package gen

import (
	"math/rand"
	"reflect"
	"testing"

	"sariadne/internal/codes"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/telemetry"
	"sariadne/internal/wsdl"
)

func TestOntologyShape(t *testing.T) {
	o := Ontology(OntologyConfig{URI: "u", Classes: 50, Properties: 10, Seed: 1})
	if o.NumClasses() != 50 || o.NumProperties() != 10 {
		t.Fatalf("shape = %d classes, %d properties", o.NumClasses(), o.NumProperties())
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	cl, err := ontology.Classify(o)
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumConcepts() != 50 {
		t.Fatalf("concepts = %d", cl.NumConcepts())
	}
	// Tree skeleton: single root (class C000).
	if roots := cl.Roots(); len(roots) != 1 {
		t.Fatalf("roots = %v, want 1", roots)
	}
}

func TestOntologyDeterministic(t *testing.T) {
	a := Ontology(OntologyConfig{URI: "u", Classes: 30, Properties: 5, Seed: 7})
	b := Ontology(OntologyConfig{URI: "u", Classes: 30, Properties: 5, Seed: 7})
	da, err := ontology.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ontology.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Fatal("same seed produced different ontologies")
	}
}

// TestWorkloadInjectedRandDeterministic: an injected generator takes
// precedence over Seed and two equal generators reproduce the workload
// byte for byte.
func TestWorkloadInjectedRandDeterministic(t *testing.T) {
	build := func() *Workload {
		return MustNewWorkload(WorkloadConfig{
			Ontologies: 2, Services: 4,
			Seed: 999, // must be ignored in favour of Rand
			Rand: rand.New(rand.NewSource(42)),
		})
	}
	a, b := build(), build()
	if len(a.ServiceDocs) != len(b.ServiceDocs) {
		t.Fatalf("workload sizes differ: %d vs %d", len(a.ServiceDocs), len(b.ServiceDocs))
	}
	for i := range a.ServiceDocs {
		if string(a.ServiceDocs[i]) != string(b.ServiceDocs[i]) {
			t.Fatalf("service %d differs between identically-seeded generators", i)
		}
	}
	// A different stream must actually change the output, proving Rand is
	// consumed rather than Seed.
	c := MustNewWorkload(WorkloadConfig{
		Ontologies: 2, Services: 4,
		Seed: 999,
		Rand: rand.New(rand.NewSource(43)),
	})
	same := true
	for i := range a.ServiceDocs {
		if string(a.ServiceDocs[i]) != string(c.ServiceDocs[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("changing the injected generator did not change the workload; Rand is not being used")
	}
}

func TestWorkloadGeneration(t *testing.T) {
	w, err := NewWorkload(WorkloadConfig{Ontologies: 5, Services: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Ontologies) != 5 || len(w.Services) != 20 || len(w.Definitions) != 20 || len(w.ServiceDocs) != 20 {
		t.Fatalf("sizes: %d/%d/%d/%d", len(w.Ontologies), len(w.Services), len(w.Definitions), len(w.ServiceDocs))
	}
	for i, svc := range w.Services {
		if err := svc.Validate(); err != nil {
			t.Fatalf("service %d: %v", i, err)
		}
		if len(svc.Provided) != 1 {
			t.Fatalf("service %d has %d capabilities, want 1", i, len(svc.Provided))
		}
	}
	for i, doc := range w.ServiceDocs {
		back, err := profile.Unmarshal(doc)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if back.Name != w.Services[i].Name {
			t.Fatalf("doc %d names %q, want %q", i, back.Name, w.Services[i].Name)
		}
	}
}

func TestWorkloadRequestsMatchTheirService(t *testing.T) {
	w := MustNewWorkload(WorkloadConfig{Ontologies: 4, Services: 15, Seed: 5})
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewCodeMatcher(reg)
	for depth := 0; depth <= 2; depth++ {
		for i := range w.Services {
			req := w.Request(i, depth)
			provided := w.Services[i].Provided[0]
			d, ok := match.SemanticDistance(m, provided, req)
			if !ok {
				t.Fatalf("depth %d: request %d does not match its source service", depth, i)
			}
			if depth == 0 && d != 0 {
				t.Fatalf("depth 0 request %d has distance %d, want 0", i, d)
			}
		}
	}
}

func TestWorkloadWSDLRequestsMatch(t *testing.T) {
	w := MustNewWorkload(WorkloadConfig{Ontologies: 4, Services: 15, Seed: 5})
	for i := range w.Definitions {
		req := w.WSDLRequest(i)
		if err := req.Validate(); err != nil {
			t.Fatalf("wsdl request %d invalid: %v", i, err)
		}
		if !wsdl.Satisfies(w.Definitions[i], req) {
			t.Fatalf("wsdl request %d not satisfied by its source", i)
		}
	}
}

func TestRegistryCoversAllOntologies(t *testing.T) {
	w := MustNewWorkload(WorkloadConfig{Ontologies: 6, Services: 1, Seed: 9})
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 6 {
		t.Fatalf("registry has %d tables, want 6", reg.Len())
	}
	for _, o := range w.Ontologies {
		if _, ok := reg.Resolve(o.URI); !ok {
			t.Fatalf("missing table for %s", o.URI)
		}
	}
}

func TestFig2Fixtures(t *testing.T) {
	o := Fig2Ontology()
	if o.NumClasses() != 99 || o.NumProperties() != 39 {
		t.Fatalf("Fig2 ontology = %d classes, %d properties; want 99/39", o.NumClasses(), o.NumProperties())
	}
	provided, requested := Fig2Capabilities()
	if len(provided.Inputs) != 7 || len(provided.Outputs) != 3 {
		t.Fatalf("provided shape = %d in, %d out", len(provided.Inputs), len(provided.Outputs))
	}
	if len(requested.Inputs) != 7 || len(requested.Outputs) != 3 {
		t.Fatalf("requested shape = %d in, %d out", len(requested.Inputs), len(requested.Outputs))
	}
	reg := codes.NewRegistry()
	reg.Register(codes.MustEncode(ontology.MustClassify(o), codes.DefaultParams))
	m := match.NewCodeMatcher(reg)
	if !match.Match(m, provided, requested) {
		t.Fatal("Figure 2 capability pair must match")
	}
}

// TestGeneratedDocumentsArePlain: what a workload serializes is what the
// directories' decoder reads on its own — none of it goes to the generic
// XML decoder — and both decoders read it alike.
func TestGeneratedDocumentsArePlain(t *testing.T) {
	genericParses := func() float64 {
		for _, m := range telemetry.Default().Snapshot() {
			if m.Name == "profile_parse_generic_total" {
				return m.Value
			}
		}
		t.Fatal("profile_parse_generic_total is not registered")
		return 0
	}
	w := MustNewWorkload(WorkloadConfig{Services: 40, Seed: 3})
	docs := append([][]byte(nil), w.ServiceDocs...)
	for i := range w.Services {
		doc, err := profile.Marshal(&profile.Service{Name: "request", Required: []*profile.Capability{w.Request(i, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	before := genericParses()
	for _, doc := range docs {
		got, err := profile.Unmarshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := profile.UnmarshalGeneric(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoders disagree on\n%s\n%+v\n%+v", doc, got, want)
		}
	}
	if n := genericParses() - before; n != 0 {
		t.Errorf("%v of %d generated documents went to the generic decoder", n, len(docs))
	}
}
