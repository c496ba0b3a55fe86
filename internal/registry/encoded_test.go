package registry

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
)

// tableWorld is a directory whose code tables change under it: services
// over three small generated ontologies, and for each ontology a few
// alternative versions — other hierarchies over the same class names — to
// register in place of the current one. The third ontology starts out with
// no table at all. lin is the oracle: a linear scan matching by name
// through the same registry, which therefore always answers over the
// tables currently registered.
type tableWorld struct {
	reg      *codes.Registry
	d        *Directory
	lin      *LinearDirectory
	versions [][]*codes.Table // [ontology][version]
	variants [][]*profile.Service
	probes   []*profile.Capability
}

func newTableWorld(tb testing.TB, seed int64) *tableWorld {
	tb.Helper()
	const names, classes = 24, 8
	gw := gen.MustNewWorkload(gen.WorkloadConfig{
		Ontologies: 3, ClassesPerOntology: classes, Services: 2 * names, CapabilitiesPerService: 2, Seed: seed,
	})
	w := &tableWorld{reg: codes.NewRegistry()}
	for i, o := range gw.Ontologies {
		tables := []*codes.Table{codes.MustEncode(gw.Classified(i), codes.DefaultParams)}
		for v := 2; v <= 3; v++ {
			alt := gen.Ontology(gen.OntologyConfig{URI: o.URI, Version: fmt.Sprint(v), Classes: classes, ExtraParents: 2, Seed: seed*100 + int64(10*i+v)})
			tables = append(tables, codes.MustEncode(ontology.MustClassify(alt), codes.DefaultParams))
		}
		w.versions = append(w.versions, tables)
		if i < 2 {
			w.reg.Register(tables[0])
		}
	}
	m := match.NewCodeMatcher(w.reg)
	w.d, w.lin = NewDirectory(m), NewLinearDirectory(m)
	for i := 0; i < names; i++ {
		var vs []*profile.Service
		for v := 0; v < 2; v++ {
			svc := gw.Services[v*names+i].Clone()
			svc.Name = fmt.Sprintf("t%02d", i)
			for c, cp := range svc.Provided {
				cp.Name = fmt.Sprintf("%s.v%d.c%d", svc.Name, v, c)
			}
			vs = append(vs, svc)
		}
		w.variants = append(w.variants, vs)
		w.probes = append(w.probes, gw.Request(i, 1), gw.Request(names+i, 0))
	}
	return w
}

func (w *tableWorld) register(tb testing.TB, svc *profile.Service) {
	tb.Helper()
	w.lin.Deregister(svc.Name) // the linear directory appends; the classified one replaces
	if err := w.lin.Register(svc); err != nil {
		tb.Fatal(err)
	}
	if err := w.d.Register(svc); err != nil {
		tb.Fatal(err)
	}
}

// replaceTable registers another version of ontology i and tells the
// directory, as whoever owns the registry must.
func (w *tableWorld) replaceTable(i, version int) int {
	t := w.versions[i][version]
	w.reg.Register(t)
	return w.d.Reclassify(t.URI())
}

// checkEqualsLinearScan requires, for every probe, the directory's answer
// to be the linear scan's: same hits, same distances, same order.
func (w *tableWorld) checkEqualsLinearScan(t *testing.T, step string) (hits int) {
	t.Helper()
	for _, req := range w.probes {
		got, want := w.d.Query(req), w.lin.Query(req)
		if len(got) != len(want) {
			t.Fatalf("%s: %s has %d hits, the linear scan %d\n%s", step, req.Name, len(got), len(want), w.d.Snapshot())
		}
		for i := range want {
			g, x := got[i], want[i]
			if g.Entry.Service != x.Entry.Service || g.Entry.Capability.Name != x.Entry.Capability.Name || g.Distance != x.Distance {
				t.Fatalf("%s: %s hit %d is %s@%d, the linear scan has %s@%d", step, req.Name, i, g.Entry, g.Distance, x.Entry, x.Distance)
			}
		}
		hits += len(want)
	}
	return hits
}

// TestHistoryWithTableReplacementEqualsLinearScan replays seeded histories
// of register, re-register, deregister, replace-a-table and query steps
// and checks the directory after every one of them against the linear
// scan (hit set and rank order), against the from-scratch snapshot compile,
// and against the graph invariants — whose edge check matches by name, so
// an edge classified under a table since replaced fails it.
func TestHistoryWithTableReplacementEqualsLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := newTableWorld(t, seed)
			rng := rand.New(rand.NewSource(seed))
			hits, reclassified := 0, 0
			for step := 0; step < 200; step++ {
				var what string
				switch k := rng.Intn(10); {
				case step == 60:
					// The ontology that had no table gets one: what was stored
					// over it matched nothing, and must start to.
					what = fmt.Sprintf("first table for ontology 2 (%d services)", w.replaceTable(2, 0))
				case k == 0:
					i, v := rng.Intn(3), rng.Intn(3)
					n := w.replaceTable(i, v)
					reclassified += n
					what = fmt.Sprintf("ontology %d to version %d (%d services)", i, v+1, n)
				case k <= 2:
					name := w.variants[rng.Intn(len(w.variants))][0].Name
					if got, want := w.d.Deregister(name), w.lin.Deregister(name); got != want {
						t.Fatalf("step %d: Deregister(%s) = %v, the linear directory says %v", step, name, got, want)
					}
					what = "deregister " + name
				default:
					vs := w.variants[rng.Intn(len(w.variants))]
					svc := vs[rng.Intn(len(vs))]
					w.register(t, svc)
					what = "register " + svc.Provided[0].Name
				}
				at := fmt.Sprintf("step %d (%s)", step, what)
				hits += w.checkEqualsLinearScan(t, at)
				checkAgainstScratch(t, w.d, w.probes)
			}
			if hits == 0 || reclassified == 0 {
				t.Fatalf("the history saw %d hits and re-classified %d services: it checked nothing", hits, reclassified)
			}
		})
	}
}

// TestHubHistoryEqualsLinearScan is the same history check on the shape
// internal/gen never makes: one node with two thousand successors
// (hubDirectory). Withdrawing a successor hands its slot to the node in the
// last one, which the hub names by slot among its two thousand, and
// publishing it again takes the slot that node left; publishing Middle
// re-parents half of them and withdrawing it puts them back; withdrawing
// Any makes every one of them a root. After every step the
// directory must answer as the linear scan does and keep the graph
// invariants; the from-scratch rebuild, quadratic in the graph, is compared
// every twentieth step.
func TestHubHistoryEqualsLinearScan(t *testing.T) {
	const fanout = 2000
	d, h := hubDirectory(t, fanout)
	w := &tableWorld{d: d, lin: NewLinearDirectory(d.matcher)}
	for _, name := range liveNames(d) {
		if err := w.lin.Register(h.service(name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, category := range []string{"K3", "K1500", "Middle", "Spare", "Any"} {
		w.probes = append(w.probes, h.service(category).Provided[0])
	}
	rng := rand.New(rand.NewSource(24))
	before := layoutOf(d)
	var total writeShape
	for step := 0; step < 40; step++ {
		name := fmt.Sprintf("K%d", rng.Intn(fanout))
		switch step % 10 {
		case 3, 8:
			name = "Middle"
		case 5:
			name = "Any"
		case 6:
			name = "Spare"
		}
		// A name that is registered is withdrawn or, as often, published
		// again: the write frees its slot, moves the last node there and
		// puts the new node in the slot that one held.
		what := "register " + name
		if d.Has(name) && rng.Intn(2) == 0 {
			what = "deregister " + name
			d.Deregister(name)
			w.lin.Deregister(name)
		} else {
			w.register(t, h.service(name))
		}
		after := layoutOf(d)
		shape := before.shapeOf(after)
		total.moved += shape.moved
		total.reused += shape.reused
		before = after
		if w.checkEqualsLinearScan(t, fmt.Sprintf("step %d (%s)", step, what)) == 0 {
			t.Fatalf("step %d (%s): no probe hits anything", step, what)
		}
		if step%20 == 19 {
			checkAgainstScratch(t, d, w.probes)
		} else if err := d.checkInvariants(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
	}
	if total.moved < 5 || total.reused < 5 {
		t.Fatalf("history too tame: %d nodes moved to a freed slot, %d slots reused", total.moved, total.reused)
	}
}

// TestStaleUntilReclassified pins the window down: between registering a
// replacement table and Reclassify the directory answers short on that
// ontology — it never compares codes of the two tables — and Reclassify
// brings the whole answer back.
func TestStaleUntilReclassified(t *testing.T) {
	w := newTableWorld(t, 1)
	for _, vs := range w.variants {
		w.register(t, vs[0])
	}
	if w.checkEqualsLinearScan(t, "populated") == 0 {
		t.Fatal("no probe hits anything")
	}
	for i := range w.versions {
		w.reg.Register(w.versions[i][0]) // the same hierarchy again, under a new table number
	}
	for _, req := range w.probes {
		if got := w.d.Query(req); len(got) != 0 {
			t.Fatalf("%s: %d hits from capabilities encoded against replaced tables", req.Name, len(got))
		}
	}
	n := 0
	for i := range w.versions {
		n += w.d.Reclassify(w.versions[i][0].URI())
	}
	if n < len(w.variants) {
		t.Fatalf("Reclassify re-registered %d services, the directory holds %d", n, len(w.variants))
	}
	w.checkEqualsLinearScan(t, "reclassified")
	checkAgainstScratch(t, w.d, w.probes)
	if got := w.d.Reclassify("http://example.org/nobody-uses-this"); got != 0 {
		t.Fatalf("Reclassify of an unused ontology re-registered %d services", got)
	}
}

// TestQueryDuringRegisterAndTableReplacement is for the race detector:
// lock-free queries run while one writer registers and withdraws services
// and another replaces code tables and reclassifies. Once the writers are
// done the directory must again equal the linear scan.
func TestQueryDuringRegisterAndTableReplacement(t *testing.T) {
	w := newTableWorld(t, 2)
	for _, vs := range w.variants {
		w.register(t, vs[0])
	}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res := w.d.Query(w.probes[i%len(w.probes)])
				for j := 1; j < len(res); j++ {
					if res[j].Distance < res[j-1].Distance {
						t.Errorf("hits out of rank order: %d after %d", res[j].Distance, res[j-1].Distance)
						return
					}
				}
				w.d.Stats()
				// A page is read after the lock is released, while the
				// writers go on.
				names, _, _ := w.d.Page("", 3)
				for j := 1; j < len(names); j++ {
					if versions, _, _ := w.d.History(names[j]); names[j] <= names[j-1] || versions == nil {
						t.Errorf("page %v out of order, or %s has no history", names, names[j])
						return
					}
				}
			}
		}()
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 300; i++ {
			vs := w.variants[rng.Intn(len(w.variants)/2)] // the other half stays put
			if i%5 == 4 {
				w.d.Deregister(vs[0].Name)
			} else if err := w.d.Register(vs[rng.Intn(len(vs))]); err != nil {
				t.Errorf("register: %v", err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 60; i++ {
			w.replaceTable(i%3, (i/3)%3)
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	// Bring the oracle to the directory's final state, then compare.
	live := make(map[string]bool)
	for _, name := range liveNames(w.d) {
		live[name] = true
	}
	for _, vs := range w.variants {
		w.lin.Deregister(vs[0].Name)
	}
	w.d.mu.Lock()
	for name := range live {
		svc := &profile.Service{Name: name, Provider: w.d.byService[name].entries[0].Provider}
		for _, e := range w.d.byService[name].entries {
			svc.Provided = append(svc.Provided, e.Capability)
		}
		if err := w.lin.Register(svc); err != nil {
			t.Error(err)
		}
	}
	w.d.mu.Unlock()
	w.checkEqualsLinearScan(t, "after the writers finished")
	checkAgainstScratch(t, w.d, w.probes)
}
