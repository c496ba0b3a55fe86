package registry

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/match"
	"sariadne/internal/profile"
)

// vertex is the from-scratch oracle's own form of a graph vertex, with
// pointers for adjacency: the directory's form names neighbours by slot,
// and the oracle shares neither its slots nor its walk order.
type vertex struct {
	rep          *match.Encoded
	entries      []*Entry
	preds, succs []*vertex
}

// newScratchSnapshot is the oracle the incremental publish is checked
// against: a snapshot rebuilt from what the directory was told, sharing
// nothing with any published one and reading no node's adjacency, no slot
// table's layout and no walk order. Which entry sits in which graph it takes
// from the entry's own ontology-set key; the graph's partition into vertices
// it reads off the writer's nodes and holds to the match relation — a vertex's
// entries are equivalent to its representative (graph.check), no two
// vertices to each other (scratchGraph) — and the edges it derives from the
// match relation itself.
func newScratchSnapshot(d *Directory) (*snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	members := make(map[string]map[*Entry]bool)
	for _, ad := range d.byService {
		for _, e := range ad.entries {
			key := e.Capability.OntologyKey()
			if members[key] == nil {
				members[key] = make(map[*Entry]bool)
			}
			members[key][e.Entry] = true
		}
	}
	s := &snapshot{byOntology: make(map[string][]int32)}
	for at, key := range slices.Sorted(maps.Keys(members)) {
		g, stored := d.graphs[key], members[key]
		if g == nil {
			return nil, fmt.Errorf("%d stored entries have key %q, which has no graph", len(stored), key)
		}
		var verts []*vertex
		for _, n := range g.cur.nodes {
			// The entries of a vertex are a set to the oracle; it lists them
			// in the published node's order so that dumps compare.
			for _, e := range n.entries {
				if !stored[e] {
					return nil, fmt.Errorf("the graph of key %q lists %s, which the service table does not hold under that key, or twice", key, e)
				}
				delete(stored, e)
			}
			verts = append(verts, &vertex{rep: n.rep, entries: n.entries})
		}
		if len(stored) > 0 {
			return nil, fmt.Errorf("the graph of key %q lacks %d entries the service table holds under it", key, len(stored))
		}
		sg, err := scratchGraph(d.enc, verts)
		if err != nil {
			return nil, fmt.Errorf("graph of key %q: %w", key, err)
		}
		s.graphs = append(s.graphs, sg)
		s.tally = s.tally.plus(sg.tally)
		for _, u := range sg.ontologies {
			s.byOntology[u] = append(s.byOntology[u], int32(at))
		}
	}
	return s, nil
}

// rankHeap is a binary min-heap of vertex name ranks.
type rankHeap []int32

func (h *rankHeap) push(r int32) {
	q := append(*h, r)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent] <= q[i] {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

func (h *rankHeap) pop() int32 {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if q[c] < q[least] {
				least = c
			}
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// topoOrder returns a deterministic topological order of verts, which
// the caller has sorted by representative name: Kahn's algorithm, always
// taking the ready vertex that comes first in that name order. order[i]
// is the name rank (index into verts) of the i-th vertex.
func topoOrder(verts []*vertex) []int32 {
	remaining := make([]int32, len(verts))
	ready := make(rankHeap, 0, len(verts))
	rank := make(map[*vertex]int32, len(verts))
	for i, v := range verts {
		rank[v] = int32(i)
		remaining[i] = int32(len(v.preds))
		if len(v.preds) == 0 {
			ready = append(ready, int32(i)) // ascending, so already a heap
		}
	}
	order := make([]int32, 0, len(verts))
	for len(ready) > 0 {
		r := ready.pop()
		order = append(order, r)
		remaining[r] = -1
		for _, s := range verts[r].succs {
			remaining[rank[s]]--
			if remaining[rank[s]] == 0 {
				ready.push(rank[s])
			}
		}
	}
	if len(order) < len(verts) {
		// A cycle would violate the DAG invariant; degrade to name order
		// for what is left (checkInvariants reports the cycle).
		for i := range verts {
			if remaining[i] >= 0 {
				order = append(order, int32(i))
			}
		}
	}
	return order
}

// scratchGraph builds one graph version from its vertices alone. The
// edges are the transitive reduction of the match relation over the
// vertices' representatives — V subsumes W directly when Match(V, W) and no
// third vertex lies between — which is what the paper's graph is and what
// insertion and removal are meant to maintain; two distinct vertices that
// match both ways should have been one. Vertices are laid out in a
// deterministic topological order (lexicographic by representative
// capability name among ready vertices), so slot i is also the i-th of the
// walk.
func scratchGraph(enc match.EncodedMatcher, verts []*vertex) (*snapGraph, error) {
	below := make([][]*vertex, len(verts)) // below[i]: the vertices verts[i] subsumes
	index := make(map[*vertex]int, len(verts))
	for i, v := range verts {
		index[v] = i
		for _, w := range verts {
			if _, ok := enc.EncodedDistance(v.rep, w.rep); ok && w != v {
				below[i] = append(below[i], w)
			}
		}
	}
	for i, v := range verts {
		for _, w := range below[i] {
			if slices.Contains(below[index[w]], v) {
				return nil, fmt.Errorf("%s and %s match both ways and are two vertices", v.rep.Capability().Name, w.rep.Capability().Name)
			}
			direct := !slices.ContainsFunc(below[i], func(x *vertex) bool { return slices.Contains(below[index[x]], w) })
			if direct {
				v.succs = append(v.succs, w)
				w.preds = append(w.preds, v)
			}
		}
	}
	slices.SortFunc(verts, func(a, b *vertex) int { return strings.Compare(a.rep.Capability().Name, b.rep.Capability().Name) })
	order := topoOrder(verts)
	// slotOf maps a vertex to its slot.
	slotOf := make(map[*vertex]int32, len(verts))
	for i, r := range order {
		slotOf[verts[r]] = int32(i)
	}
	slots := func(vs []*vertex) []int32 {
		out := make([]int32, len(vs))
		for i, v := range vs {
			out[i] = slotOf[v]
		}
		return out
	}
	dr := &draft{}
	uris := make(map[string]struct{})
	roots := 0
	for i, r := range order {
		v := verts[r]
		dr.nodes = append(dr.nodes, newNode(v.rep, v.entries, slots(v.preds), slots(v.succs)))
		dr.order = append(dr.order, int32(i))
		dr.tally.edges += int32(len(v.succs))
		dr.tally.entries += int32(len(v.entries))
		if len(v.preds) == 0 {
			roots++
		}
		if len(v.succs) == 0 {
			dr.tally.leaves++
		}
		for _, e := range v.entries {
			for _, u := range e.Capability.Ontologies() {
				uris[u] = struct{}{}
			}
		}
	}
	dr.ontologies = slices.Sorted(maps.Keys(uris))
	dr.key = profile.OntologySetKey(dr.ontologies)
	return newSnapGraph(dr, roots), nil
}

// graphPositions renders a candidate list as positions in the snapshot's
// graph list, so lists of two snapshots compare by content; a pointer
// the snapshot's own list does not hold renders as -1.
func graphPositions(s *snapshot, list []*snapGraph) []int {
	out := make([]int, len(list))
	for i, g := range list {
		out[i] = slices.Index(s.graphs, g)
	}
	return out
}

// checkAgainstScratch asserts that the directory's published snapshot is
// indistinguishable, through every reader, from a from-scratch rebuild of
// what it holds.
func checkAgainstScratch(t *testing.T, d *Directory, probes []*profile.Capability) {
	t.Helper()
	want, err := newScratchSnapshot(d)
	if err != nil {
		t.Fatal(err)
	}
	got := d.snap.Load()
	if g, w := got.dump(), want.dump(); g != w {
		t.Fatalf("Snapshot() differs from a from-scratch rebuild\n got:\n%s\nwant:\n%s", g, w)
	}
	if g, w := d.Stats(), want.stats(); g != w {
		t.Fatalf("Stats() = %+v, from scratch %+v", g, w)
	}
	if g, w := d.NumGraphs(), len(want.graphs); g != w {
		t.Fatalf("NumGraphs() = %d, from scratch %d", g, w)
	}
	d.mu.Lock()
	var wantServices []string
	for name, ad := range d.byService {
		if ad.live() {
			wantServices = append(wantServices, name)
		}
	}
	d.mu.Unlock()
	if g := liveNames(d); !slices.Equal(g, slices.Sorted(slices.Values(wantServices))) {
		t.Fatalf("the listing is %v, the service table holds %v live", g, wantServices)
	}
	if g, w := d.Ontologies(), want.ontologyURIs(); !slices.Equal(g, w) {
		t.Fatalf("Ontologies() = %v, from scratch %v", g, w)
	}
	wantKeys := make([]string, len(want.graphs))
	for i, g := range want.graphs {
		wantKeys[i] = g.key
	}
	if g := d.OntologyKeys(); !slices.Equal(g, wantKeys) {
		t.Fatalf("OntologyKeys() = %q, from scratch %q", g, wantKeys)
	}
	if !maps.EqualFunc(got.byOntology, want.byOntology, slices.Equal[[]int32]) {
		t.Fatalf("ontology index = %v, from scratch %v", got.byOntology, want.byOntology)
	}
	for _, c := range probes {
		uris := c.RequiredOntologies()
		if g, w := graphPositions(got, got.candidateGraphs(uris)), graphPositions(want, want.candidateGraphs(uris)); !slices.Equal(g, w) {
			t.Fatalf("candidate graphs for %v = %v, from scratch %v", uris, g, w)
		}
	}
	if err := d.checkInvariants(); err != nil { // checkSnapshotConsistent included
		t.Fatal(err)
	}
}

// checkSnapshotConsistent verifies what a reader may assume of any single
// snapshot it loads, without reference to the writer: the counters agree
// with what the graphs enumerate, every walk order visits each slot once
// and a node's predecessors before it, the graphs are sorted by key without
// duplicates, and the ontology index lists exactly the snapshot's own graphs
// under exactly their URIs.
func checkSnapshotConsistent(s *snapshot) error {
	var sum tally
	for at, g := range s.graphs {
		if at > 0 && s.graphs[at-1].key >= g.key {
			return fmt.Errorf("graphs not sorted by key and duplicate-free: %q before %q", s.graphs[at-1].key, g.key)
		}
		pos, err := positions(&g.tables)
		if err != nil {
			return err
		}
		sum.vertices += int32(len(g.nodes))
		for i, v := range g.nodes {
			sum.entries += int32(len(v.entries))
			sum.edges += int32(len(v.succs))
			if len(v.preds) == 0 {
				sum.roots++
			}
			if len(v.succs) == 0 {
				sum.leaves++
			}
			for _, p := range v.preds {
				if pos[p] >= pos[i] {
					return fmt.Errorf("walk order visits slot %d before its predecessor %d", i, p)
				}
			}
		}
		for _, u := range g.ontologies {
			if !slices.Contains(s.byOntology[u], int32(at)) {
				return fmt.Errorf("graph using %s is not listed under it", u)
			}
		}
	}
	if sum != s.tally {
		return fmt.Errorf("snapshot counters %+v, graphs enumerate %+v", s.tally, sum)
	}
	if st := s.stats(); st.Entries != int(sum.entries) || st.Graphs != len(s.graphs) {
		return fmt.Errorf("stats %+v, graphs enumerate %d entries in %d graphs", st, sum.entries, len(s.graphs))
	}
	for u, list := range s.byOntology {
		if len(list) == 0 {
			return fmt.Errorf("empty list under %s", u)
		}
		for i, at := range list {
			if at < 0 || int(at) >= len(s.graphs) || i > 0 && list[i-1] >= at {
				return fmt.Errorf("list under %s is not ascending positions of the snapshot's %d graphs: %v", u, len(s.graphs), list)
			}
			if g := s.graphs[at]; !slices.Contains(g.ontologies, u) || !g.covers([]string{u}) {
				return fmt.Errorf("list under %s holds a graph that does not use it", u)
			}
		}
	}
	return nil
}

// advertPool is the material of one random history: for every service
// name, a few alternative advertisements a (re-)register picks from.
type advertPool struct {
	d        *Directory
	variants [][]*profile.Service
	probes   []*profile.Capability
}

// fixturePool draws advertisements over the Figure 1 ontologies: one to
// three capabilities per service, exact duplicates of another service's
// capability (a shared vertex), and one capability in ten that uses the
// servers ontology alone — a second key, whose few holders come and go and
// whose graph a request over the servers ontology is offered beside the
// other.
func fixturePool(t *testing.T, rng *rand.Rand) advertPool {
	categories := []string{"Server", "DigitalServer", "StreamingServer", "VideoServer", "SoundServer", "GameServer"}
	inputs := []string{"Resource", "DigitalResource", "VideoResource", "SoundResource", "GameResource", "Movie"}
	outputs := []string{"Stream", "VideoStream", "AudioStream"}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	d, _ := newFixtureDirectory(t)
	p := advertPool{d: d}
	var shapes [][3]string
	for i := 0; i < 10; i++ {
		var vs []*profile.Service
		for v := 0; v < 3; v++ {
			name := fmt.Sprintf("s%02d", i)
			var caps []*profile.Capability
			for c, n := 0, 1+rng.Intn(3); c < n; c++ {
				shape := [3]string{pick(categories), pick(inputs), pick(outputs)}
				switch rng.Intn(10) {
				case 0:
					shape[1], shape[2] = "", "" // servers ontology only
				case 1, 2:
					if len(shapes) > 0 {
						shape = shapes[rng.Intn(len(shapes))] // equivalent to an earlier one
					}
				}
				shapes = append(shapes, shape)
				caps = append(caps, capability(fmt.Sprintf("%s.v%d.c%d", name, v, c), shape[0], shape[1], shape[2]))
			}
			vs = append(vs, service(name, caps...))
		}
		p.variants = append(p.variants, vs)
	}
	for i := 0; i < 4; i++ {
		p.probes = append(p.probes, capability("probe", pick(categories), pick(inputs), pick(outputs)))
	}
	p.probes = append(p.probes, capability("probe", "Server", "", ""))
	return p
}

// generatedPool draws two-capability services over three small generated
// ontologies, a capability's inputs from a second ontology four times in
// ten: six keys of one or two URIs, each held by few services, graphs that
// empty while their URIs live on in another.
func generatedPool(t *testing.T, seed int64) advertPool {
	const names = 16
	w := gen.MustNewWorkload(gen.WorkloadConfig{
		Ontologies: 3, ClassesPerOntology: 8, Services: 2 * names, CapabilitiesPerService: 2, CrossOntologyInputs: 40, Seed: seed,
	})
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	p := advertPool{d: NewDirectory(match.NewCodeMatcher(reg))}
	for i := 0; i < names; i++ {
		var vs []*profile.Service
		for v := 0; v < 2; v++ {
			svc := w.Services[v*names+i].Clone()
			svc.Name = fmt.Sprintf("g%02d", i)
			for c, cp := range svc.Provided {
				// Unique names keep the name-ordered dump free of ties.
				cp.Name = fmt.Sprintf("%s.v%d.c%d", svc.Name, v, c)
			}
			vs = append(vs, svc)
		}
		p.variants = append(p.variants, vs)
		p.probes = append(p.probes, w.Request(i, 1))
	}
	return p
}

// densePool draws services of one or two capabilities over one ontology
// of eight concepts, so that nearly every capability is related to many
// others: most of the directory is one graph that grows to a hundred
// vertices and more, and a write lands inside a large graph instead of
// beside it (the live benchmark's dense shape needs a thousand services to
// get there). The first two services take their inputs from a second
// ontology: a key beside the large one that few hold, so that it comes and
// goes, and that a request over the first ontology alone is offered too.
func densePool(t *testing.T, seed int64) advertPool {
	const names = 120
	w := gen.MustNewWorkload(gen.WorkloadConfig{
		Ontologies: 2, ClassesPerOntology: 8, InputsPerCapability: 2, OutputsPerCapability: 1,
		Services: 3 * names, CapabilitiesPerService: 2, Seed: seed,
	})
	// Both ontologies name their concepts alike, so a reference moves from
	// one to the other by its URI.
	first, second := w.Ontologies[0].URI, w.Ontologies[1].URI
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	p := advertPool{d: NewDirectory(match.NewCodeMatcher(reg))}
	for i := 0; i < names; i++ {
		var vs []*profile.Service
		for v := 0; v < 3; v++ {
			svc := w.Services[v*names+i].Clone()
			svc.Name = fmt.Sprintf("d%03d", i)
			svc.Provided = svc.Provided[:1+(i+v)%2]
			for c, cp := range svc.Provided {
				cp.Name = fmt.Sprintf("%s.v%d.c%d", svc.Name, v, c)
				cp.Category.Ontology = first
				for k := range cp.Inputs {
					cp.Inputs[k].Ontology = first
					if i < 2 {
						cp.Inputs[k].Ontology = second
					}
				}
				for k := range cp.Outputs {
					cp.Outputs[k].Ontology = first
				}
			}
			vs = append(vs, svc)
		}
		p.variants = append(p.variants, vs)
	}
	for i := 0; i < 8; i++ {
		p.probes = append(p.probes, p.variants[i*names/8][0].Provided[0])
	}
	return p
}

// layout is where the directory keeps every vertex: its graph and its
// slot. A write replaces the nodes it changes, so what identifies a vertex
// from one version to the next is its representative, which it keeps.
type layout map[*match.Encoded]place

type place struct {
	g    *graph
	slot int32
}

func layoutOf(d *Directory) layout {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := make(layout)
	for _, g := range d.graphs {
		for slot, n := range g.cur.nodes {
			l[n.rep] = place{g, int32(slot)}
		}
	}
	return l
}

// writeShape is what one write did to the layout, as far as the slot
// tables care.
type writeShape struct {
	// created and emptied count graphs; moved counts vertices a removal
	// put into another slot; reused counts new vertices in a slot another
	// vertex held before the write.
	created, emptied, moved, reused int
}

func (before layout) shapeOf(after layout) writeShape {
	graphs := func(l layout) (map[*graph]int, map[place]bool) {
		sizes, held := make(map[*graph]int), make(map[place]bool)
		for _, at := range l {
			sizes[at.g]++
			held[at] = true
		}
		return sizes, held
	}
	was, heldBefore := graphs(before)
	is, _ := graphs(after)
	var w writeShape
	for g := range is {
		if was[g] == 0 {
			w.created++
		}
	}
	for g := range was {
		if is[g] == 0 {
			w.emptied++
		}
	}
	for v, at := range after {
		switch old, existed := before[v]; {
		case existed && old.slot != at.slot:
			w.moved++
		case !existed && heldBefore[at]:
			w.reused++
		}
	}
	return w
}

// TestIncrementalSnapshotEqualsFromScratch replays seeded random
// histories over several ontology sets — register, re-register with changed
// capabilities, deregister, multi-capability services, shared vertices, keys
// whose last holder leaves, taking the key's graph and its place in the
// ontology index along, and returns — and after every step requires the
// published snapshot, which was derived from its predecessor, to equal a
// whole-directory rebuild. Seeds past 6 run inside large graphs (densePool),
// where a write replaces a few nodes of a large graph instead of a small
// graph whole: vertices removed from the middle of the slot table, their
// slots taken again by the same write, one key's graph created by the write
// that empties another's.
func TestIncrementalSnapshotEqualsFromScratch(t *testing.T) {
	swaps := 0 // writes, over all histories, that created one key's graph and emptied another's
	for seed := int64(1); seed <= 9; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dense := seed > 6
			var pool advertPool
			switch {
			case dense:
				pool = densePool(t, seed)
			case seed%2 == 0:
				pool = generatedPool(t, seed)
			default:
				pool = fixturePool(t, rng)
			}
			d := pool.d
			checkAgainstScratch(t, d, pool.probes)
			if dense {
				for _, vs := range pool.variants {
					if err := d.Register(vs[0]); err != nil {
						t.Fatal(err)
					}
				}
				checkAgainstScratch(t, d, pool.probes)
			}
			var total writeShape
			keyFlips, largest := 0, 0
			for step := 0; step < 250; step++ {
				i := rng.Intn(len(pool.variants))
				if dense && step%8 == 0 {
					i = rng.Intn(2) // the two holders of the pool's second key
				}
				before, keysBefore := layoutOf(d), len(d.OntologyKeys())
				// Deregistrations come in runs so the small directories drain
				// to nothing now and then and refill; the dense one stays
				// nearly full.
				if rng.Intn(3) == 0 || !dense && (step/40)%3 == 2 && rng.Intn(2) == 0 {
					d.Deregister(pool.variants[i][0].Name)
				} else if err := d.Register(pool.variants[i][rng.Intn(len(pool.variants[i]))]); err != nil {
					t.Fatal(err)
				}
				w := before.shapeOf(layoutOf(d))
				total.created += w.created
				total.emptied += w.emptied
				total.moved += w.moved
				total.reused += w.reused
				if w.created > 0 && w.emptied > 0 {
					swaps++
				}
				if len(d.OntologyKeys()) != keysBefore {
					keyFlips++
				}
				largest = max(largest, d.Stats().MaxGraphVertices)
				checkAgainstScratch(t, d, pool.probes)
			}
			if total.emptied < 2 || total.created < 2 || keyFlips < 4 {
				t.Fatalf("history too tame: %d keys' graphs emptied, %d created, %d key-set changes", total.emptied, total.created, keyFlips)
			}
			if dense && (largest < 80 || total.moved < 10 || total.reused < 10) {
				t.Fatalf("history too tame: largest graph %d vertices, %d vertices moved to a freed slot, %d slots reused", largest, total.moved, total.reused)
			}
		})
	}
	if swaps == 0 {
		t.Fatal("histories too tame: no write created one key's graph and emptied another's")
	}
}

// quadraticOrder is the vertex ordering the from-scratch rebuild used
// before the heap: rescan the name-sorted list for the first ready vertex, once per
// placed vertex. It is kept here as the definition topoOrder must equal.
func quadraticOrder(verts []*vertex) []*vertex {
	remaining := make(map[*vertex]int, len(verts))
	for _, v := range verts {
		remaining[v] = len(v.preds)
	}
	order := make([]*vertex, 0, len(verts))
	placed := make(map[*vertex]bool, len(verts))
	for len(order) < len(verts) {
		advanced := false
		for _, v := range verts {
			if placed[v] || remaining[v] != 0 {
				continue
			}
			placed[v] = true
			order = append(order, v)
			for _, s := range v.succs {
				remaining[s]--
			}
			advanced = true
			break
		}
		if !advanced {
			for _, v := range verts {
				if !placed[v] {
					placed[v] = true
					order = append(order, v)
				}
			}
		}
	}
	return order
}

// dagOf builds vertices named names, with an edge for every [from, to]
// index pair, sorted by name as scratchGraph hands them over.
func dagOf(names []string, edges [][2]int) []*vertex {
	verts := make([]*vertex, len(names))
	enc := match.EncoderFor(match.NewHierarchyMatcher())
	for i, n := range names {
		verts[i] = &vertex{rep: enc.Encode(&profile.Capability{Name: n})}
	}
	for _, e := range edges {
		from, to := verts[e[0]], verts[e[1]]
		from.succs = append(from.succs, to)
		to.preds = append(to.preds, from)
	}
	slices.SortFunc(verts, func(a, b *vertex) int { return strings.Compare(a.rep.Capability().Name, b.rep.Capability().Name) })
	return verts
}

func TestTopoOrderEqualsQuadraticOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	shuffled := func(n int, format string) []string {
		names := make([]string, n)
		for i, p := range rng.Perm(n) {
			names[i] = fmt.Sprintf(format, p)
		}
		return names
	}
	cases := map[string][]*vertex{
		"empty":  dagOf(nil, nil),
		"single": dagOf([]string{"only"}, nil),
		// z is the root and a the sink, so name order and edge order pull
		// opposite ways.
		"diamond":          dagOf([]string{"z", "m", "n", "a"}, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}),
		"stacked diamonds": dagOf([]string{"d", "b", "c", "a", "y", "z", "x"}, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}}),
		"cycle":            dagOf([]string{"r", "a", "b", "c"}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}}),
	}
	{
		names := shuffled(200, "leaf%03d")
		var edges [][2]int
		for i := 1; i < len(names); i++ {
			edges = append(edges, [2]int{0, i})
		}
		cases["wide fan out"] = dagOf(names, edges)
		for i := range edges {
			edges[i] = [2]int{edges[i][1], 0}
		}
		cases["wide fan in"] = dagOf(names, edges)
	}
	{
		names := shuffled(300, "link%d") // unpadded: link10 sorts before link2
		var edges [][2]int
		for i := 1; i < len(names); i++ {
			edges = append(edges, [2]int{i - 1, i})
		}
		cases["long chain"] = dagOf(names, edges)
	}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		names := make([]string, n)
		for i := range names {
			// Equal prefixes of varying length: Stream, StreamA, StreamAA…
			names[i] = "Stream" + strings.Repeat("A", rng.Intn(4)) + fmt.Sprint(i)
		}
		var edges [][2]int
		for from := 0; from < n; from++ {
			for to := from + 1; to < n; to++ {
				if rng.Intn(n) < 3 {
					edges = append(edges, [2]int{from, to})
				}
			}
		}
		cases[fmt.Sprintf("random %d", trial)] = dagOf(names, edges)
	}
	for name, verts := range cases {
		want := quadraticOrder(verts)
		got := topoOrder(verts)
		if len(got) != len(want) {
			t.Fatalf("%s: ordered %d of %d vertices", name, len(got), len(want))
		}
		for i, r := range got {
			if verts[r] != want[i] {
				t.Fatalf("%s: position %d holds %s, the quadratic order puts %s there", name, i, verts[r].rep.Capability().Name, want[i].rep.Capability().Name)
			}
		}
	}
}
