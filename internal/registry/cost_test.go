package registry

import (
	"fmt"
	"runtime"
	"testing"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/testutil"
)

// sizedDirectory registers services advertisements of one of the live
// benchmark's two directory shapes and returns the directory with a few
// further advertisements of the same shape, not registered. Sparse is one
// ontology of 40 concepts per ~90 services (lookup-sparse: nearly every
// capability is unrelated to every other, so a graph is ~90 roots and the
// number of graphs grows with the directory); dense is two ontologies of 12
// concepts whatever the size (lookup-dense: two large graphs).
func sizedDirectory(tb testing.TB, services int, dense bool) (*Directory, []*profile.Service) {
	tb.Helper()
	return sizedDirectoryOver(tb, services, dense, func(m *match.CodeMatcher) match.ConceptMatcher { return m })
}

// sizedDirectoryOver is sizedDirectory with the directory's matcher made
// by over from the code matcher of the generated ontologies.
func sizedDirectoryOver(tb testing.TB, services int, dense bool, over func(*match.CodeMatcher) match.ConceptMatcher) (*Directory, []*profile.Service) {
	tb.Helper()
	const spare = 8
	cfg := gen.WorkloadConfig{Ontologies: max(1, services/90), Services: services + spare, Seed: 2006}
	if dense {
		cfg.Ontologies, cfg.ClassesPerOntology = 2, 12
	}
	w := gen.MustNewWorkload(cfg)
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		tb.Fatal(err)
	}
	d := NewDirectory(over(match.NewCodeMatcher(reg)))
	for _, svc := range w.Services[:services] {
		if err := d.Register(svc); err != nil {
			tb.Fatal(err)
		}
	}
	return d, w.Services[services:]
}

// publishPair is one publish and one withdrawal of a name the directory
// does not hold: two snapshots, and the directory ends as it began.
func publishPair(tb testing.TB, d *Directory, fresh *profile.Service) {
	if err := d.Register(fresh); err != nil {
		tb.Fatal(err)
	}
	if !d.Deregister(fresh.Name) {
		tb.Fatal("fresh service was not registered")
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

var flatSink any

// flatCopyBytes is what the linear-by-design part of publishing fresh and
// withdrawing it again allocates (see snapshot.go): twice the snapshot's
// graph pointer list, one pointer per ontology-set key, and twice the draft
// of the next version of the graph the advertisement lands in — the copies
// of its slot table and walk order. It is measured, not computed, so that it
// includes the allocator's rounding; the draft is the directory's own
// newDraft. The second result is the draft's share, once, and the third the
// number of nodes it copies.
func flatCopyBytes(tb testing.TB, d *Directory, fresh *profile.Service) (total, draft float64, nodes int) {
	if err := d.Register(fresh); err != nil {
		tb.Fatal(err)
	}
	d.mu.Lock()
	cur := d.byService[fresh.Name].entries[0].g.cur
	d.mu.Unlock()
	graphs := d.NumGraphs()
	d.Deregister(fresh.Name)
	list := func() { flatSink = make([]*snapGraph, graphs) }
	draft = allocated(func() { flatSink = newDraft(cur) })
	return allocated(func() { list(); list() }) + 2*draft, draft, len(cur.nodes)
}

// TestRegisterCostIndependentOfSize is the guard on the publish path that
// does not depend on how fast the host is: what one Register plus one
// Deregister allocates must not grow with the directory, in either of the
// live benchmark's shapes — many graphs of unrelated roots, where the write
// adds a root to one of them, and two large ones, where it patches one. Ten
// times the services may cost at most half as much again — in allocations
// outright, and in bytes once the terms that are linear by design are set
// aside, the flat copies of the snapshot's graph pointer list (per key) and
// of the touched graph's slot table and walk order (see snapshot.go). That
// last copy, the draft of the graph's next version, is held to 16
// bytes per node — 8 for the slot, 4 for the walk order, 4 for its inverse
// — plus the allocator's rounding of three arrays and the draft itself.
//
// On the dense shape it also reports the match operations one insert
// needs, next to what the unbounded reference classifier needs for the
// same insert into the same directory, and requires the bound on the
// search for S to save a third of them at 2000 services.
func TestRegisterCostIndependentOfSize(t *testing.T) {
	type cost struct{ allocs, bytes, flatBytes, matchOps, referenceOps float64 }
	const perNode, rounding, fixed = 16, 1.2, 256 // the budget of a draft; size classes near 8 KB are 18 % apart
	measure := func(services int, dense bool) cost {
		d, fresh := sizedDirectory(t, services, dense)
		st := d.Stats()
		if !dense && (st.Roots < services*9/10 || st.Graphs != len(d.Ontologies())) {
			t.Fatalf("%d services made %d roots in %d graphs; the sparse shape should be nearly all roots, in one graph per ontology", services, st.Roots, st.Graphs)
		}
		if dense && st.MaxGraphVertices < services/10 {
			t.Fatalf("%d services made no graph larger than %d vertices; the dense shape should have a large one", services, st.MaxGraphVertices)
		}
		pairs := func() {
			for _, svc := range fresh {
				publishPair(t, d, svc)
			}
		}
		pairs()
		var c cost
		n := float64(len(fresh))
		for _, svc := range fresh {
			flat, draft, nodes := flatCopyBytes(t, d, svc)
			c.flatBytes += flat / n
			if budget := perNode*rounding*float64(nodes+1) + fixed; draft > budget {
				t.Errorf("%d services: the draft of a graph of %d nodes takes %.0f B, over %d B per node (%.0f B with rounding)", services, nodes, draft, perNode, budget)
			}
		}
		const runs = 10
		c.bytes = allocated(func() {
			for range runs {
				pairs()
			}
		}) / runs / n
		c.allocs = testing.AllocsPerRun(runs, pairs) / n
		ops := d.MatchOps()
		pairs()
		c.matchOps = float64(d.MatchOps()-ops) / n
		ops = d.MatchOps()
		d.classify = d.referenceClassify
		pairs()
		c.referenceOps = float64(d.MatchOps()-ops) / n
		return c
	}
	for _, shape := range []string{"sparse", "dense"} {
		t.Run(shape, func(t *testing.T) {
			small, large := measure(200, shape == "dense"), measure(2000, shape == "dense")
			for _, at := range []struct {
				services int
				c        cost
			}{{200, small}, {2000, large}} {
				t.Logf("%d services: a publish pair makes %.0f allocations of %.0f B (%.0f B of them flat copies) for %.0f match operations (reference classifier %.0f)",
					at.services, at.c.allocs, at.c.bytes, at.c.flatBytes, at.c.matchOps, at.c.referenceOps)
			}
			if large.allocs > 1.5*small.allocs {
				t.Errorf("a publish pair allocates %.0f times at 2000 services, %.0f at 200: more than 1.5x", large.allocs, small.allocs)
			}
			if l, s := large.bytes-large.flatBytes, small.bytes-small.flatBytes; l > 1.5*s {
				t.Errorf("beyond the flat copies a publish pair allocates %.0f B at 2000 services, %.0f B at 200: more than 1.5x", l, s)
			}
			if small.matchOps > small.referenceOps || large.matchOps > large.referenceOps {
				t.Errorf("an insert needs more match operations than with the reference classifier")
			}
			if shape == "dense" && 3*large.matchOps > 2*large.referenceOps {
				t.Errorf("at 2000 services an insert needs %.0f match operations, more than two thirds of the reference classifier's %.0f", large.matchOps, large.referenceOps)
			}
		})
	}
}

// TestUnrelatedRootBytes is the byte budget of the lookup-sparse shape,
// where nearly every capability is related to no other: what such a
// capability costs as a root of its key's graph — its node with its entry
// list, its slot, its place in the walk order and in the writer's root list
// — beyond what an equivalent one costs, which shares one node and so costs
// the entry, the service record and 8 bytes of that node's entry list. Both
// directories hold one graph. When every unrelated capability had a graph of
// its own the difference was 324 B, and 622 B when a graph had two forms.
func TestUnrelatedRootBytes(t *testing.T) {
	const n, budget = 2000, 110
	resident := func(category func(i int) string) int64 {
		d, h, _ := hubWorld(t, n)
		var services []*profile.Service
		for i := range n {
			svc := h.service(category(i))
			svc.Name = fmt.Sprintf("svc%04d", i)
			services = append(services, svc)
		}
		before := testutil.LiveHeapBytes()
		for _, svc := range services {
			if err := d.Register(svc); err != nil {
				t.Fatal(err)
			}
		}
		after := testutil.LiveHeapBytes()
		if err := d.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		if st := d.Stats(); st.Graphs != 1 {
			t.Fatalf("capabilities of one ontology set are in %d graphs", st.Graphs)
		}
		return (after - before) / n
	}
	apart := resident(func(i int) string { return fmt.Sprintf("K%d", i) })
	together := resident(func(int) string { return "K0" })
	t.Logf("an advertisement costs %d B as a root of its own and %d B in a node it shares: a root is %d B", apart, together, apart-together)
	if apart-together > budget {
		t.Errorf("an unrelated root costs %d B, over the budget of %d", apart-together, budget)
	}
}

// countingMatcher is a code matcher that counts the name lookups made
// through it: two per concept pair matched by name, one per reference of a
// capability it encodes. The encoded distance itself is the code matcher's.
type countingMatcher struct {
	*match.CodeMatcher
	byName, encoded int
}

func (m *countingMatcher) Distance(a, b ontology.Ref) (int, bool) {
	m.byName += 2
	return m.CodeMatcher.Distance(a, b)
}

func (m *countingMatcher) Encode(c *profile.Capability) *match.Encoded {
	e := m.CodeMatcher.Encode(c)
	m.encoded += e.NumRefs()
	return e
}

func numRefs(c *profile.Capability) int {
	return 1 + len(c.Properties) + len(c.Inputs) + len(c.Outputs)
}

// TestNameLookupsIndependentOfSize is the guard on the match operation
// that does not depend on how fast the host is: a Register looks up as
// many names as its advertisement has concept references, a Query as many
// as its request has, whatever the size of the directory and however many
// match operations the insert or the walk performs — and a match operation
// allocates nothing.
func TestNameLookupsIndependentOfSize(t *testing.T) {
	for _, services := range []int{200, 2000} {
		t.Run(fmt.Sprintf("services=%d", services), func(t *testing.T) {
			var m *countingMatcher
			d, fresh := sizedDirectoryOver(t, services, true, func(cm *match.CodeMatcher) match.ConceptMatcher {
				m = &countingMatcher{CodeMatcher: cm}
				return m
			})
			var registerOps, queryOps uint64
			for _, svc := range fresh {
				want := 0
				for _, c := range svc.Provided {
					want += numRefs(c)
				}
				m.encoded, m.byName = 0, 0
				ops := d.MatchOps()
				if err := d.Register(svc); err != nil {
					t.Fatal(err)
				}
				registerOps += d.MatchOps() - ops
				if m.encoded != want || m.byName != 0 {
					t.Fatalf("Register(%s) looked up %d names encoding and %d matching by name; the advertisement has %d references", svc.Name, m.encoded, m.byName, want)
				}
				req := svc.Provided[0]
				m.encoded, m.byName = 0, 0
				ops = d.MatchOps()
				if len(d.Query(req)) == 0 {
					t.Fatalf("a query for %s's own capability finds nothing", svc.Name)
				}
				queryOps += d.MatchOps() - ops
				if m.encoded != numRefs(req) || m.byName != 0 {
					t.Fatalf("Query looked up %d names encoding and %d matching by name; the request has %d references", m.encoded, m.byName, numRefs(req))
				}
			}
			n := uint64(len(fresh))
			t.Logf("%d services: %d match operations per register, %d per query", services, registerOps/n, queryOps/n)
			if registerOps/n < 10 || queryOps/n < 10 {
				t.Errorf("%d match operations per register and %d per query: too few to tell name lookups per operation from name lookups per match", registerOps/n, queryOps/n)
			}

			a, b := d.enc.Encode(fresh[0].Provided[0]), d.enc.Encode(fresh[1].Provided[0])
			if _, ok := d.distance(a, a); !ok {
				t.Fatal("a capability does not match itself")
			}
			if allocs := testing.AllocsPerRun(1000, func() {
				d.distance(a, a)
				d.distance(a, b)
				d.distance(b, a)
			}); allocs != 0 {
				t.Errorf("three match operations allocate %.1f times", allocs)
			}
		})
	}
}

// BenchmarkRegisterAtSize times that publish pair against directories of
// both shapes and growing size; per-op time and allocations should be
// flat down the sparse column (Fig. 8's "insert is nearly constant",
// far past the sizes the paper measured) and grow only with the size of
// the one graph touched down the dense one.
//
// The hub rows are the shape the adjacency slices could be slow on, which
// internal/gen never makes: one vertex with fanout successors. leaf
// publishes one more successor of the hub, middle a vertex between the
// hub and half its successors (fanout/2 edges re-parented, and put back),
// top withdraws and publishes the hub itself. Each needs about two match
// operations per successor, so time linear in the fan-out is the
// classifier's; anything steeper would be the slices'.
func BenchmarkRegisterAtSize(b *testing.B) {
	for _, shape := range []string{"sparse", "dense"} {
		for _, services := range []int{200, 2000, 8000} {
			b.Run(fmt.Sprintf("%s/services=%d", shape, services), func(b *testing.B) {
				d, fresh := sizedDirectory(b, services, shape == "dense")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					publishPair(b, d, fresh[0])
				}
			})
		}
	}
	for _, write := range []string{"leaf", "middle", "top"} {
		for _, fanout := range []int{200, 2000} { // building the hub is quadratic in match operations
			b.Run(fmt.Sprintf("hub-%s/fanout=%d", write, fanout), func(b *testing.B) {
				d, hub := hubDirectory(b, fanout)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					switch write {
					case "leaf":
						publishPair(b, d, hub.service("Spare"))
					case "middle":
						publishPair(b, d, hub.service("Middle"))
					case "top":
						d.Deregister("Any")
						if err := d.Register(hub.service("Any")); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				if err := d.checkInvariants(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// hubOntology is the vocabulary of hubDirectory.
type hubOntology struct{ uri string }

// service advertises one capability of the named category and nothing
// else, so that one service matches another exactly when its category
// subsumes the other's.
func (h hubOntology) service(category string) *profile.Service {
	return &profile.Service{Name: category, Provider: "hub-host", Provided: []*profile.Capability{
		{Name: "Offer" + category, Category: ontology.Ref{Ontology: h.uri, Name: category}},
	}}
}

// hubWorld is an empty directory over the hub vocabulary: concept Any
// subsumes Middle, Spare and the second half of the concepts K0 …
// K<fanout-1> directly, and Middle subsumes the first half. It returns the
// concepts' names with the directory.
func hubWorld(tb testing.TB, fanout int) (*Directory, hubOntology, []string) {
	tb.Helper()
	h := hubOntology{uri: "http://example.org/hub"}
	o := ontology.New(h.uri, "1")
	classes := []ontology.Class{{Name: "Any"}, {Name: "Middle", SubClassOf: []string{"Any"}}, {Name: "Spare", SubClassOf: []string{"Any"}}}
	for i := range fanout {
		super := "Any"
		if i < fanout/2 {
			super = "Middle"
		}
		classes = append(classes, ontology.Class{Name: fmt.Sprintf("K%d", i), SubClassOf: []string{super}})
	}
	var names []string
	for _, c := range classes {
		if err := o.AddClass(c); err != nil {
			tb.Fatal(err)
		}
		names = append(names, c.Name)
	}
	reg := codes.NewRegistry()
	reg.Register(codes.MustEncode(ontology.MustClassify(o), codes.DefaultParams))
	return NewDirectory(match.NewCodeMatcher(reg)), h, names
}

// hubDirectory is a directory of one graph in which the node of service
// Any has fanout successors and they have none: every concept of hubWorld
// has its service registered but Middle and Spare.
func hubDirectory(tb testing.TB, fanout int) (*Directory, hubOntology) {
	tb.Helper()
	d, h, names := hubWorld(tb, fanout)
	for _, name := range names {
		if name == "Middle" || name == "Spare" {
			continue
		}
		if err := d.Register(h.service(name)); err != nil {
			tb.Fatal(err)
		}
	}
	d.mu.Lock()
	at := d.byService["Any"].entries[0]
	d.mu.Unlock()
	if succs := at.g.cur.nodes[at.slot].succs; len(d.graphs) != 1 || len(succs) != fanout || int(at.g.cur.tally.leaves) != fanout {
		tb.Fatalf("hub has %d successors in %d graphs, want %d in one", len(succs), len(d.graphs), fanout)
	}
	return d, h
}
