package main

import (
	"fmt"
	"path/filepath"
	"testing"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/registry"
	"sariadne/internal/sdpapi"
	"sariadne/internal/store/memstore"
)

// TestAddOntologyReplacesTable: add-ontology registers a code table for a
// URI that stored advertisements already use — replacing the table they
// were classified under, or giving them the first one — and from then on
// the daemon's answers are those of a linear scan over the tables now
// registered, hit for hit and in rank order. The same must hold for a
// daemon restarted onto the store, which replays the uploads in between
// the registrations.
func TestAddOntologyReplacesTable(t *testing.T) {
	const services, classes = 120, 8
	w := gen.MustNewWorkload(gen.WorkloadConfig{Ontologies: 2, ClassesPerOntology: classes, Services: services, Seed: 19})
	// Other hierarchies over the same class names, as a new version of an
	// ontology rearranged.
	rearranged := func(i int, version string) *ontology.Ontology {
		return gen.Ontology(gen.OntologyConfig{URI: w.Ontologies[i].URI, Version: version, Classes: classes, ExtraParents: 2, Seed: int64(100*i) + 7})
	}
	var requests []*profile.Capability
	for i := 0; i < services; i += 2 {
		requests = append(requests, w.Request(i, 1))
	}

	for _, kind := range []string{"bolt", "mem"} {
		t.Run(kind, func(t *testing.T) {
			cfg := bareConfig()
			cfg.storeKind, cfg.state = kind, filepath.Join(t.TempDir(), "state")
			if kind == "mem" { // both lifetimes share the one medium there is
				cfg.store = memstore.New()
			}
			s := bootServer(t, cfg)

			// The oracle has its own registry and matches by name.
			tables := codes.NewRegistry()
			lin := registry.NewLinearDirectory(match.NewCodeMatcher(tables))
			upload := func(s *server, o *ontology.Ontology) {
				t.Helper()
				doc, err := ontology.Marshal(o)
				if err != nil {
					t.Fatal(err)
				}
				if resp := s.handle(sdpapi.Request{Op: sdpapi.OpAddOntology, Doc: string(doc)}); !resp.OK {
					t.Fatalf("add-ontology %s: %s", o.URI, resp.Error)
				}
				tables.Register(codes.MustEncode(ontology.MustClassify(o), codes.DefaultParams))
			}
			// answers checks every request and returns what the daemon said,
			// for comparison between stages.
			answers := func(s *server, stage string) (all []string) {
				t.Helper()
				for _, req := range requests {
					resp := s.handle(sdpapi.Request{Op: sdpapi.OpQuery, Doc: mustDoc(t, &profile.Service{Name: "client", Required: []*profile.Capability{req}})})
					if !resp.OK {
						t.Fatalf("%s: query %s: %s", stage, req.Name, resp.Error)
					}
					want := lin.Query(req)
					if len(resp.Hits) != len(want) {
						t.Fatalf("%s: %s has %d hits, the linear scan over the current tables %d", stage, req.Name, len(resp.Hits), len(want))
					}
					for i, h := range resp.Hits {
						x := want[i]
						if h.Service != x.Entry.Service || h.Capability != x.Entry.Capability.Name || h.Distance != x.Distance {
							t.Fatalf("%s: %s hit %d is %v, the linear scan has %s@%d", stage, req.Name, i, h, x.Entry, x.Distance)
						}
						all = append(all, fmt.Sprintf("%s<-%v", req.Name, h))
					}
				}
				return all
			}

			// Ontology 0 is there from the start; ontology 1 arrives after the
			// advertisements that use it.
			upload(s, w.Ontologies[0])
			for _, svc := range w.Services {
				if resp := s.handle(sdpapi.Request{Op: sdpapi.OpRegister, Doc: mustDoc(t, svc)}); !resp.OK {
					t.Fatalf("register %s: %s", svc.Name, resp.Error)
				}
				if err := lin.Register(svc); err != nil {
					t.Fatal(err)
				}
			}
			before := answers(s, "ontology 1 missing")
			upload(s, w.Ontologies[1])
			first := answers(s, "ontology 1 added late")
			if len(first) <= len(before) {
				t.Fatalf("%d hits with ontology 1 missing, %d with it: the late table changed nothing", len(before), len(first))
			}
			upload(s, rearranged(0, "2"))
			upload(s, rearranged(1, "2"))
			second := answers(s, "both ontologies replaced")
			if fmt.Sprint(first) == fmt.Sprint(second) || len(second) == 0 {
				t.Fatalf("the replacement tables left all %d hits as they were: the test distinguishes nothing", len(second))
			}

			// Restart: the second daemon sees only the store.
			if kind != "mem" { // a closed memstore cannot be reopened; replay it as it is
				s.close()
			}
			s2 := bootServer(t, cfg)
			if want := (replayStats{applied: 4 + services}); s2.recovered != want {
				t.Fatalf("replay found %+v, want %+v", s2.recovered, want)
			}
			if replayed := answers(s2, "replayed"); fmt.Sprint(replayed) != fmt.Sprint(second) {
				t.Fatalf("after replay the daemon answers\n%v\nbefore the restart\n%v", replayed, second)
			}
		})
	}
}
