// Benchmarks reproducing the paper's evaluation (one per measured figure)
// plus the ablations DESIGN.md calls for. cmd/benchfig generates the
// corresponding figure data series; EXPERIMENTS.md records paper-vs-
// measured shapes.
package sariadne_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"sariadne/internal/ariadne"
	"sariadne/internal/bloom"
	"sariadne/internal/codes"
	"sariadne/internal/compose"
	"sariadne/internal/discovery"
	"sariadne/internal/election"
	"sariadne/internal/gen"
	"sariadne/internal/gist"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/reasoner"
	"sariadne/internal/registry"
	"sariadne/internal/simnet"
	"sariadne/internal/testutil"
	"sariadne/internal/wsdl"
)

// ---------------------------------------------------------------------------
// Figure 2 — cost of matching one capability pair with online reasoners
// (stand-ins for Racer / FaCT++ / Pellet), decomposed into parse,
// load+classify, and match phases; plus the encoded matcher for contrast.
// Paper: 4–5 s per match, load+classify 76–78% of the total.
// ---------------------------------------------------------------------------

// fig2Fixtures returns the serialized ontology document and the two
// serialized capability-description documents of the Figure 2 setup.
func fig2Fixtures(b *testing.B) (ontDoc, providedDoc, requestedDoc []byte) {
	b.Helper()
	ontDoc, err := ontology.Marshal(gen.Fig2Ontology())
	if err != nil {
		b.Fatal(err)
	}
	provided, requested := gen.Fig2Capabilities()
	providedDoc, err = profile.Marshal(&profile.Service{Name: "provided", Provided: []*profile.Capability{provided}})
	if err != nil {
		b.Fatal(err)
	}
	requestedDoc, err = profile.Marshal(&profile.Service{Name: "requested", Required: []*profile.Capability{requested}})
	if err != nil {
		b.Fatal(err)
	}
	return ontDoc, providedDoc, requestedDoc
}

// BenchmarkFig2OnlineReasoners decomposes one matchmaking episode into the
// paper's three tasks (Section 2.4): (1) parsing the requested and
// provided capability descriptions, (2) loading and classifying the
// ontology with the reasoner — ontology-document processing included, as
// real reasoners ingest RDF/XML — and (3) finding the subsumption
// relationships (the match proper).
func BenchmarkFig2OnlineReasoners(b *testing.B) {
	ontDoc, providedDoc, requestedDoc := fig2Fixtures(b)

	for _, prof := range reasoner.Profiles() {
		b.Run(prof, func(b *testing.B) {
			b.Run("parse", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := profile.Unmarshal(providedDoc); err != nil {
						b.Fatal(err)
					}
					if _, err := profile.Unmarshal(requestedDoc); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("loadclassify", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, _ := reasoner.New(prof)
					if err := r.Load(bytes.NewReader(ontDoc)); err != nil {
						b.Fatal(err)
					}
					if _, err := r.Classify(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("match", func(b *testing.B) {
				provided, requested := gen.Fig2Capabilities()
				r, _ := reasoner.New(prof)
				if err := r.Load(bytes.NewReader(ontDoc)); err != nil {
					b.Fatal(err)
				}
				h, err := r.Classify()
				if err != nil {
					b.Fatal(err)
				}
				m := match.NewHierarchyMatcher()
				m.Add(gen.Fig2Ontology().URI, h)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !match.Match(m, provided, requested) {
						b.Fatal("pair must match")
					}
				}
			})
			// total: the full online pipeline per matchmaking episode,
			// exactly what Figure 2's bars show.
			b.Run("total", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ps, err := profile.Unmarshal(providedDoc)
					if err != nil {
						b.Fatal(err)
					}
					rs, err := profile.Unmarshal(requestedDoc)
					if err != nil {
						b.Fatal(err)
					}
					r, _ := reasoner.New(prof)
					if err := r.Load(bytes.NewReader(ontDoc)); err != nil {
						b.Fatal(err)
					}
					h, err := r.Classify()
					if err != nil {
						b.Fatal(err)
					}
					m := match.NewHierarchyMatcher()
					m.Add(gen.Fig2Ontology().URI, h)
					if !match.Match(m, ps.Provided[0], rs.Required[0]) {
						b.Fatal("pair must match")
					}
				}
			})
		})
	}
}

// BenchmarkFig2EncodedMatching is the paper's optimization applied to the
// same pair: codes are prepared offline, runtime matching is numeric.
func BenchmarkFig2EncodedMatching(b *testing.B) {
	o := gen.Fig2Ontology()
	provided, requested := gen.Fig2Capabilities()
	reg := codes.NewRegistry()
	reg.Register(codes.MustEncode(ontology.MustClassify(o), codes.DefaultParams))
	m := match.NewCodeMatcher(reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !match.Match(m, provided, requested) {
			b.Fatal("pair must match")
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 7–9 share the paper's workload: 22 ontologies, one provided
// capability per service, directory sizes 1..100.
// ---------------------------------------------------------------------------

var figSizes = []int{20, 60, 100}

func evalWorkload(b *testing.B, services int) (*gen.Workload, *codes.Registry) {
	b.Helper()
	w := gen.MustNewWorkload(gen.WorkloadConfig{
		Ontologies:           22,
		Services:             services,
		InputsPerCapability:  5,
		OutputsPerCapability: 3,
		Seed:                 42,
	})
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		b.Fatal(err)
	}
	return w, reg
}

// BenchmarkFig7CreateGraphs measures populating an empty directory with n
// advertisements: the parse phase vs the graph-classification phase.
func BenchmarkFig7CreateGraphs(b *testing.B) {
	for _, n := range figSizes {
		w, reg := evalWorkload(b, n)
		b.Run(fmt.Sprintf("services=%d/parse", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, doc := range w.ServiceDocs {
					if _, err := ontologyFreeParse(doc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("services=%d/create", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := registry.NewDirectory(match.NewCodeMatcher(reg))
				b.StartTimer()
				for _, svc := range w.Services {
					if err := dir.Register(svc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("services=%d/total", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := registry.NewDirectory(match.NewCodeMatcher(reg))
				b.StartTimer()
				for _, doc := range w.ServiceDocs {
					svc, err := ontologyFreeParse(doc)
					if err != nil {
						b.Fatal(err)
					}
					if err := dir.Register(svc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig8Insert measures publishing one additional advertisement
// into an already-populated directory (parse vs insert); the paper finds
// the insert phase near-constant in directory size. It goes on to 1000
// and 2000 services, where a publish cost that grows with the directory
// can no longer hide.
func BenchmarkFig8Insert(b *testing.B) {
	for _, n := range slices.Concat(figSizes, []int{1000, 2000}) {
		w, reg := evalWorkload(b, n+1)
		newDoc := w.ServiceDocs[n]
		b.Run(fmt.Sprintf("services=%d/parse", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ontologyFreeParse(newDoc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("services=%d/insert", n), func(b *testing.B) {
			dir := registry.NewDirectory(match.NewCodeMatcher(reg))
			for _, svc := range w.Services[:n] {
				if err := dir.Register(svc); err != nil {
					b.Fatal(err)
				}
			}
			base, err := ontologyFreeParse(newDoc)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fresh service name each iteration: measures classifying a
				// genuinely new advertisement (replacement has a different
				// cost profile).
				svc := base.Clone()
				svc.Name = fmt.Sprintf("new%d", i)
				if err := dir.Register(svc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9Match compares resolving a request in the classified
// directory (optimized) against unclassified linear matching, request
// parse time excluded as in the paper.
func BenchmarkFig9Match(b *testing.B) {
	for _, n := range figSizes {
		w, reg := evalWorkload(b, n)
		m := match.NewCodeMatcher(reg)
		req := w.Request(n/2, 1)

		b.Run(fmt.Sprintf("services=%d/optimized", n), func(b *testing.B) {
			dir := registry.NewDirectory(m)
			for _, svc := range w.Services {
				if err := dir.Register(svc); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := dir.Query(req); len(res) == 0 {
					b.Fatal("request must match")
				}
			}
		})
		b.Run(fmt.Sprintf("services=%d/linear", n), func(b *testing.B) {
			dir := registry.NewLinearDirectory(m)
			for _, svc := range w.Services {
				if err := dir.Register(svc); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := dir.Query(req); len(res) == 0 {
					b.Fatal("request must match")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 10 — Ariadne (syntactic WSDL scan) vs S-Ariadne (semantic,
// classified + encoded) directory response time, same services, document
// in / answer out on both sides.
// ---------------------------------------------------------------------------

func BenchmarkFig10AriadneVsSAriadne(b *testing.B) {
	for _, n := range figSizes {
		w, reg := evalWorkload(b, n)

		b.Run(fmt.Sprintf("services=%d/ariadne", n), func(b *testing.B) {
			backend := ariadne.NewBackend()
			for _, def := range w.Definitions {
				doc, err := wsdl.Marshal(def)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := backend.Register(doc); err != nil {
					b.Fatal(err)
				}
			}
			reqDoc, err := wsdl.Marshal(w.WSDLRequest(n / 2))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits, _, _, err := backend.Resolve(reqDoc)
				if err != nil || len(hits) == 0 {
					b.Fatalf("hits=%v err=%v", hits, err)
				}
			}
		})
		b.Run(fmt.Sprintf("services=%d/s-ariadne", n), func(b *testing.B) {
			backend := discovery.NewSemanticBackend(reg)
			for _, doc := range w.ServiceDocs {
				if _, err := backend.Register(doc); err != nil {
					b.Fatal(err)
				}
			}
			reqDoc := semanticRequestDoc(b, w, n/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits, err := backend.Query(reqDoc)
				if err != nil || len(hits) == 0 {
					b.Fatalf("hits=%v err=%v", hits, err)
				}
			}
		})
	}
}

// semanticRequestDoc builds the Amigo-S request document derived from a
// stored service (guaranteed to match it).
func semanticRequestDoc(b *testing.B, w *gen.Workload, idx int) []byte {
	b.Helper()
	req := &profile.Service{
		Name:     "request",
		Required: []*profile.Capability{w.Request(idx, 1)},
	}
	doc, err := profile.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return doc
}

// ontologyFreeParse parses an Amigo-S document (the parse phase of the
// publication experiments).
func ontologyFreeParse(doc []byte) (*profile.Service, error) {
	return profile.Unmarshal(doc)
}

// ---------------------------------------------------------------------------
// Section 2.4 reference point — UDDI-style syntactic registry query.
// ---------------------------------------------------------------------------

func BenchmarkUDDISyntacticRegistry(b *testing.B) {
	w, _ := evalWorkload(b, 100)
	reg := wsdl.NewRegistry()
	for _, def := range w.Definitions {
		if err := reg.Publish(def); err != nil {
			b.Fatal(err)
		}
	}
	req := w.WSDLRequest(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := reg.Query(req); len(got) == 0 {
			b.Fatal("no hit")
		}
	}
}

// ---------------------------------------------------------------------------
// Section 3.1 shape — GiST-style rectangle directory: queries cheap,
// insertions comparatively heavy (tree splits).
// ---------------------------------------------------------------------------

func BenchmarkGiSTDirectoryInsert(b *testing.B) {
	w, reg := evalWorkload(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := gist.NewDirectory(reg)
		b.StartTimer()
		for _, svc := range w.Services {
			if err := dir.Register(svc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkGiSTDirectoryQuery(b *testing.B) {
	w, reg := evalWorkload(b, 100)
	dir := gist.NewDirectory(reg)
	for _, svc := range w.Services {
		if err := dir.Register(svc); err != nil {
			b.Fatal(err)
		}
	}
	req := w.Request(50, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := dir.Query(req); len(res) == 0 {
			b.Fatal("no hit")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation — the same query workload against the three directory
// backends: the paper's capability DAG, the GiST rectangles, and a flat
// linear scan.
// ---------------------------------------------------------------------------

func BenchmarkAblationDirectoryBackends(b *testing.B) {
	w, reg := evalWorkload(b, 100)
	m := match.NewCodeMatcher(reg)
	req := w.Request(50, 1)

	dag := registry.NewDirectory(m)
	rect := gist.NewDirectory(reg)
	flat := registry.NewLinearDirectory(m)
	for _, svc := range w.Services {
		if err := dag.Register(svc); err != nil {
			b.Fatal(err)
		}
		if err := rect.Register(svc); err != nil {
			b.Fatal(err)
		}
		if err := flat.Register(svc); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("dag", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := dag.Query(req); len(res) == 0 {
				b.Fatal("no hit")
			}
		}
	})
	b.Run("gist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := rect.Query(req); len(res) == 0 {
				b.Fatal("no hit")
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := flat.Query(req); len(res) == 0 {
				b.Fatal("no hit")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Ablation — reasoner-backed vs encoded concept matching on one pair.
// ---------------------------------------------------------------------------

func BenchmarkAblationMatcherBackends(b *testing.B) {
	o := gen.Fig2Ontology()
	provided, requested := gen.Fig2Capabilities()

	b.Run("hierarchy", func(b *testing.B) {
		r := reasoner.NewNaive()
		if err := r.LoadOntology(o); err != nil {
			b.Fatal(err)
		}
		h, err := r.Classify()
		if err != nil {
			b.Fatal(err)
		}
		m := match.NewHierarchyMatcher()
		m.Add(o.URI, h)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !match.Match(m, provided, requested) {
				b.Fatal("must match")
			}
		}
	})
	b.Run("codes", func(b *testing.B) {
		reg := codes.NewRegistry()
		reg.Register(codes.MustEncode(ontology.MustClassify(o), codes.DefaultParams))
		m := match.NewCodeMatcher(reg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !match.Match(m, provided, requested) {
				b.Fatal("must match")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Section 4 — Bloom summary operations and offline encoding cost.
// ---------------------------------------------------------------------------

func BenchmarkBloomFilter(b *testing.B) {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("http://amigo.example/gen/ont%02d\x00http://amigo.example/gen/ont%02d", i%22, (i+7)%22)
	}
	b.Run("add", func(b *testing.B) {
		f := bloom.MustNew(1024, 4)
		for i := 0; i < b.N; i++ {
			f.Add(keys[i%len(keys)])
		}
	})
	b.Run("test", func(b *testing.B) {
		f := bloom.MustNew(1024, 4)
		for _, k := range keys {
			f.Add(k)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Test(keys[i%len(keys)])
		}
	})
}

// BenchmarkEncodeOntology is the offline step the paper moves out of the
// critical path: classification plus interval encoding of the Figure 2
// ontology.
func BenchmarkEncodeOntology(b *testing.B) {
	o := gen.Fig2Ontology()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl, err := ontology.Classify(o)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codes.Encode(cl, codes.DefaultParams); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXMLParsing isolates the document-parsing cost that dominates
// Figures 7 and 8.
func BenchmarkXMLParsing(b *testing.B) {
	w, _ := evalWorkload(b, 10)
	b.Run("amigos-service", func(b *testing.B) {
		doc := w.ServiceDocs[0]
		for i := 0; i < b.N; i++ {
			if _, err := profile.Unmarshal(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ontology", func(b *testing.B) {
		doc, err := ontology.Marshal(w.Ontologies[0])
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		buf.Write(doc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ontology.Unmarshal(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Extension benches — composition resolution and full protocol round trip.
// ---------------------------------------------------------------------------

// BenchmarkComposeResolve measures recursive composition over a directory:
// a 5-deep requirement chain resolved end to end.
func BenchmarkComposeResolve(b *testing.B) {
	reg := codes.NewRegistry()
	for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
		reg.Register(codes.MustEncode(ontology.MustClassify(o), codes.DefaultParams))
	}
	dir := registry.NewDirectory(match.NewCodeMatcher(reg))
	cats := []string{"Server", "DigitalServer", "StreamingServer", "VideoServer", "SoundServer", "GameServer"}
	cat := compose.Catalog{}
	var root *profile.Service
	for i := 0; i < len(cats); i++ {
		s := &profile.Service{Name: cats[i] + "Svc"}
		s.Provided = []*profile.Capability{{
			Name:     "Provide" + cats[i],
			Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: cats[i]},
			Outputs:  []ontology.Ref{{Ontology: profile.MediaOntologyURI, Name: "Stream"}},
		}}
		if i+1 < len(cats) {
			s.Required = []*profile.Capability{{
				Name:     "Need" + cats[i+1],
				Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: cats[i+1]},
				Outputs:  []ontology.Ref{{Ontology: profile.MediaOntologyURI, Name: "Stream"}},
			}}
		}
		cat[s.Name] = s
		if i == 0 {
			root = s
		} else if err := dir.Register(s); err != nil {
			b.Fatal(err)
		}
	}
	opts := compose.Options{Resolver: cat}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := compose.Resolve(dir, root, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Services()) != len(cats) {
			b.Fatalf("plan covers %d services", len(plan.Services()))
		}
	}
}

// BenchmarkProtocolRoundTrip measures one full Discover over the simulated
// network: client -> directory -> classified local match -> reply.
func BenchmarkProtocolRoundTrip(b *testing.B) {
	reg := codes.NewRegistry()
	for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
		reg.Register(codes.MustEncode(ontology.MustClassify(o), codes.DefaultParams))
	}
	net := simnet.New(simnet.Config{})
	defer net.Close()
	eps, err := simnet.BuildLine(net, "n", 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := discovery.Config{
		QueryTimeout: time.Second,
		TickInterval: 2 * time.Millisecond,
		Election: election.Config{
			AdvertiseInterval: 20 * time.Millisecond,
			AdvertiseTTL:      3,
			ElectionTimeout:   time.Hour,
		},
	}
	nodes := make([]*discovery.Node, len(eps))
	for i, ep := range eps {
		nodes[i] = discovery.NewNode(ep, discovery.NewSemanticBackend(reg), cfg)
		nodes[i].Start(context.Background())
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	nodes[1].BecomeDirectory()
	testutil.WaitFor(b, 5*time.Second, func() bool {
		_, ok := nodes[0].DirectoryID()
		return ok
	}, "directory advertisement")
	ctx := context.Background()
	doc, err := profile.Marshal(profile.WorkstationService())
	if err != nil {
		b.Fatal(err)
	}
	if err := nodes[0].Publish(ctx, doc); err != nil {
		b.Fatal(err)
	}
	reqDoc, err := profile.Marshal(profile.PDAService())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits, err := nodes[2].Discover(ctx, reqDoc)
		if err != nil || len(hits) != 1 {
			b.Fatalf("hits=%v err=%v", hits, err)
		}
	}
}
