package registry

import (
	"os"
	"path/filepath"
	"testing"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
)

// TestCorpusEndToEnd drives the XML corpus under internal/profile/testdata
// through the full local pipeline: parse + classify + encode the
// ontologies, register the media center, resolve the tablet's request.
// Both provided capabilities of the media center match the WatchFilm
// request functionally, but its QoS bound (latency ≤ 30ms) keeps both:
// StreamMovies at 25ms (distance 1: Film ≡ Movie, exact category and
// output) and StreamAnyDigital at 15ms (higher distance, generic). The
// ranking must put the dedicated movie capability first.
func TestCorpusEndToEnd(t *testing.T) {
	base := filepath.Join("..", "profile", "testdata")
	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join(base, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}

	reg := codes.NewRegistry()
	for _, name := range []string{"media-ontology.xml", "servers-ontology.xml"} {
		o, err := ontology.Decode(open(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cl, err := ontology.Classify(o)
		if err != nil {
			t.Fatal(err)
		}
		table, err := codes.Encode(cl, codes.DefaultParams)
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(table)
	}
	m := match.NewCodeMatcher(reg)
	dir := NewDirectory(m)

	svc, err := profile.Decode(open("media-center.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckVersions(svc); err != nil {
		t.Fatalf("code versions: %v", err)
	}
	if err := dir.Register(svc); err != nil {
		t.Fatal(err)
	}

	request, err := profile.Decode(open("tablet-request.xml"))
	if err != nil {
		t.Fatal(err)
	}
	results := dir.Query(request.Required[0])
	if len(results) != 2 {
		t.Fatalf("results = %v, want both media-center capabilities", results)
	}
	if results[0].Entry.Capability.Name != "StreamMovies" {
		t.Fatalf("best = %s, want StreamMovies", results[0].Entry.Capability.Name)
	}
	if results[0].Distance >= results[1].Distance {
		t.Fatalf("ranking broken: %v", results)
	}

	// Tighten the latency bound to 20ms: the 25ms movie capability drops,
	// the 15ms generic one stays.
	tight := request.Required[0].Clone()
	tight.QoSRequired = []profile.QoSConstraint{
		{Name: "latencyMs", Min: profile.Unbounded(), Max: 20},
	}
	results = dir.Query(tight)
	if len(results) != 1 || results[0].Entry.Capability.Name != "StreamAnyDigital" {
		t.Fatalf("tight-QoS results = %v, want StreamAnyDigital only", results)
	}
}

// TestDenseCorporaEqualLinearScan answers requests over the live
// benchmark's dense shape (1400 services over two ontologies of twelve
// concepts) and over the corpus the one-graph-per-key rule is least kind to:
// the same shape with half the capabilities taking their inputs from the
// other ontology, so that three keys — {a}, {b}, {a, b} — hold capabilities
// that match across keys and get no edge for it, and a request over one
// ontology is offered two of the three graphs. Every answer must be the
// linear scan's, hit for hit in rank order; the test reports the structure
// and what an insert and a query cost in match operations and root probes,
// the figures EXPERIMENTS.md sets beside those of the first-related-graph
// rule.
func TestDenseCorporaEqualLinearScan(t *testing.T) {
	const services, requests = 1400, 64
	for _, corpus := range []struct {
		name                string
		crossOntologyInputs int
		keys                int
	}{{"single-ontology", 0, 2}, {"mixed-keys", 50, 3}} {
		t.Run(corpus.name, func(t *testing.T) {
			w := gen.MustNewWorkload(gen.WorkloadConfig{
				Ontologies: 2, ClassesPerOntology: 12, Services: services, CrossOntologyInputs: corpus.crossOntologyInputs, Seed: 2006,
			})
			reg, err := w.Registry(codes.DefaultParams)
			if err != nil {
				t.Fatal(err)
			}
			m := match.NewCodeMatcher(reg)
			d, linear := NewDirectory(m), NewLinearDirectory(m)
			for _, svc := range w.Services {
				if err := d.Register(svc); err != nil {
					t.Fatal(err)
				}
				if err := linear.Register(svc); err != nil {
					t.Fatal(err)
				}
			}
			insertOps := d.MatchOps()
			if err := d.checkInvariants(); err != nil {
				t.Fatal(err)
			}
			if keys := d.OntologyKeys(); len(keys) != corpus.keys || d.NumGraphs() != corpus.keys {
				t.Fatalf("%d graphs for keys %q, want %d of each", d.NumGraphs(), keys, corpus.keys)
			}
			probesBefore := findMetric(t, "registry_root_probes_total").Value
			hits := 0
			for i := range requests {
				req := w.Request(i*services/requests, 1)
				got, want := d.Query(req), linear.Query(req)
				if len(got) != len(want) || len(got) == 0 {
					t.Fatalf("request %d: %d hits, the linear scan finds %d", i, len(got), len(want))
				}
				for k := range got {
					if got[k].Entry.String() != want[k].Entry.String() || got[k].Distance != want[k].Distance {
						t.Fatalf("request %d, rank %d: %s at %d, the linear scan has %s at %d", i, k, got[k].Entry, got[k].Distance, want[k].Entry, want[k].Distance)
					}
				}
				hits += len(got)
			}
			probes := findMetric(t, "registry_root_probes_total").Value - probesBefore
			t.Logf("%+v; %.1f match operations per insert; per query %.1f hits, %.1f root probes, %.1f match operations (linear scan %d)",
				d.Stats(), float64(insertOps)/services, float64(hits)/requests, probes/requests, float64(d.MatchOps()-insertOps)/requests, services)
		})
	}
}
