package registry

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"sariadne/internal/match"
)

// checkInvariants verifies structural invariants; tests call it after
// mutation sequences. It returns a description of the first violation.
func (d *Directory) checkInvariants() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for gi, g := range d.graphs {
		if err := g.check(d.matcher); err != nil {
			return fmt.Errorf("graph %d: %w", gi, err)
		}
		for _, o := range g.ontologies {
			if idx := d.byOntology[o.uri]; idx == nil || !slices.Contains(idx.graphs, g) {
				return fmt.Errorf("graph %d uses %s but is not listed under it", gi, o.uri)
			}
		}
	}
	for u, idx := range d.byOntology {
		if idx.uri != u || len(idx.graphs) == 0 {
			return fmt.Errorf("index entry under %s is for %q and lists %d graphs", u, idx.uri, len(idx.graphs))
		}
		for i, g := range idx.graphs {
			if _, ok := g.ontology(u); !ok || !slices.Contains(d.graphs, g) || slices.Contains(idx.graphs[:i], g) {
				return fmt.Errorf("list under %s holds a graph twice, a dead graph or one that does not use it", u)
			}
		}
	}
	// The published snapshot must agree with the builder state: same
	// graphs, same entry total, and every compiled graph slot for slot
	// what compiling the builder's vertices gives.
	snap := d.snap.Load()
	if len(snap.graphs) != len(d.graphs) {
		return fmt.Errorf("snapshot has %d graphs, builder %d", len(snap.graphs), len(d.graphs))
	}
	wantEntries := 0
	for _, entries := range d.byService {
		wantEntries += len(entries)
	}
	if snap.tally.entries != wantEntries {
		return fmt.Errorf("snapshot has %d entries, builder %d", snap.tally.entries, wantEntries)
	}
	for name, entries := range d.byService {
		for _, e := range entries {
			if !slices.Contains(d.graphs, e.g) || int(e.v.slot) >= len(e.g.slots) || e.v.slot < 0 || e.g.slots[e.v.slot] != e.v || !slices.Contains(e.v.entries, e.Entry) {
				return fmt.Errorf("entry %s of %s is not in the vertex and graph it names", e, name)
			}
		}
	}
	// Between writes the classifier's scratch names no vertex, so that one
	// a write took out of its graph is garbage.
	sc := &d.scratch
	for _, l := range [][]*vertex{sc.m, sc.s, sc.parents, sc.children, sc.leaves, sc.pending} {
		if slices.ContainsFunc(l[:cap(l)], func(v *vertex) bool { return v != nil }) {
			return errors.New("the classifier's scratch still names a vertex after the write")
		}
	}
	for gi, sg := range snap.graphs {
		g := d.graphs[gi]
		if sg != g.compiled {
			return fmt.Errorf("snapshot graph %d is not the builder graph's compiled form", gi)
		}
		var walk []int32
		for i := sg.first; i >= 0 && len(walk) <= len(sg.vertices); i = sg.vertices[i].next {
			walk = append(walk, i)
		}
		if len(sg.vertices) != len(g.slots) || !slices.Equal(walk, g.order) {
			return fmt.Errorf("snapshot graph %d: %d vertices walked in order %v, builder %d in %v", gi, len(sg.vertices), walk, len(g.slots), g.order)
		}
		if want := (tally{len(g.slots), g.edges, g.entries, len(g.roots), len(g.leaves)}); sg.tally != want {
			return fmt.Errorf("snapshot graph %d counts %+v, builder %+v", gi, sg.tally, want)
		}
		want := make([]string, len(g.ontologies))
		for i, o := range g.ontologies {
			want[i] = o.uri
		}
		if !slices.Equal(sg.ontologies, want) || !sg.covers(want) || !g.covers(want) ||
			sg.covers([]string{"http://no.such/ontology"}) || g.covers([]string{"http://no.such/ontology"}) {
			return fmt.Errorf("snapshot graph %d lists ontologies %v, builder %v, or one of them does not cover exactly those", gi, sg.ontologies, want)
		}
		for i, v := range g.slots {
			got, want := &sg.vertices[i], newSnapVertex(v)
			if got.rep != want.rep || got.root != want.root || got.leaf != want.leaf || !slices.Equal(got.entries, want.entries) ||
				!slices.Equal(got.preds, want.preds) || !slices.Equal(got.succs, want.succs) {
				return fmt.Errorf("snapshot graph %d: slot %d is stale for %s", gi, i, v.rep.Capability().Name)
			}
		}
	}
	return nil
}

// check verifies one builder graph between writes: slot, walk-order,
// root/leaf and counter bookkeeping, edges that respect Match, and no edge
// that another path already implies.
func (g *graph) check(m match.ConceptMatcher) error {
	if g.dirty || g.ontoStale || len(g.touched) > 0 {
		return errors.New("unpublished changes")
	}
	if len(g.order) != len(g.slots) || len(g.pos) != len(g.slots) {
		return fmt.Errorf("%d slots, %d in the walk order, %d positions", len(g.slots), len(g.order), len(g.pos))
	}
	member := func(v *vertex) bool {
		return v.slot >= 0 && int(v.slot) < len(g.slots) && g.slots[v.slot] == v
	}
	edges, entries, roots, leaves := 0, 0, 0, 0
	uses := make(map[string]int)
	for i, v := range g.slots {
		if int(v.slot) != i || v.touched {
			return fmt.Errorf("slot %d holds %s, which has slot %d, touched %v", i, v.rep.Capability().Name, v.slot, v.touched)
		}
		if g.order[g.pos[i]] != int32(i) {
			return fmt.Errorf("walk order and positions disagree on slot %d", i)
		}
		if (len(v.preds) == 0) != slices.Contains(g.roots, v) {
			return fmt.Errorf("root bookkeeping wrong for %s", v.rep.Capability().Name)
		}
		if (len(v.succs) == 0) != slices.Contains(g.leaves, v) {
			return fmt.Errorf("leaf bookkeeping wrong for %s", v.rep.Capability().Name)
		}
		for _, set := range [][]*vertex{v.preds, v.succs} {
			if dup := duplicate(set); dup != nil {
				return fmt.Errorf("adjacency of %s holds %s twice", v.rep.Capability().Name, dup.rep.Capability().Name)
			}
		}
		if len(v.entries) == 0 {
			return fmt.Errorf("empty vertex %s", v.rep.Capability().Name)
		}
		for _, e := range v.entries {
			for _, u := range e.Capability.Ontologies() {
				uses[u]++
			}
		}
		// With every edge running forward in the walk order the graph is
		// acyclic.
		for _, s := range v.succs {
			if !member(s) || !slices.Contains(s.preds, v) {
				return fmt.Errorf("edge %s -> %s is asymmetric or leaves the graph", v.rep.Capability().Name, s.rep.Capability().Name)
			}
			if g.pos[v.slot] >= g.pos[s.slot] {
				return fmt.Errorf("walk order visits %s before its predecessor %s", s.rep.Capability().Name, v.rep.Capability().Name)
			}
			if !match.Match(m, v.rep.Capability(), s.rep.Capability()) {
				return fmt.Errorf("edge %s -> %s violates Match", v.rep.Capability().Name, s.rep.Capability().Name)
			}
		}
		for _, p := range v.preds {
			if !member(p) || !slices.Contains(p.succs, v) {
				return fmt.Errorf("edge %s -> %s is asymmetric or leaves the graph", p.rep.Capability().Name, v.rep.Capability().Name)
			}
		}
		if s := g.redundantSucc(v); s != nil {
			return fmt.Errorf("edge %s -> %s is implied by a longer path", v.rep.Capability().Name, s.rep.Capability().Name)
		}
		edges += len(v.succs)
		entries += len(v.entries)
		if len(v.preds) == 0 {
			roots++
		}
		if len(v.succs) == 0 {
			leaves++
		}
	}
	if edges != g.edges || entries != g.entries || roots != len(g.roots) || leaves != len(g.leaves) {
		return fmt.Errorf("counts %d edges, %d entries, %d roots, %d leaves; vertices enumerate %d, %d, %d, %d",
			g.edges, g.entries, len(g.roots), len(g.leaves), edges, entries, roots, leaves)
	}
	// The root and leaf sets hold members only, once each: with the counts
	// above and the per-vertex checks they are exactly the roots and leaves.
	for _, set := range [][]*vertex{g.roots, g.leaves} {
		if dup := duplicate(set); dup != nil {
			return fmt.Errorf("root or leaf set holds %s twice", dup.rep.Capability().Name)
		}
		for _, v := range set {
			if !member(v) {
				return fmt.Errorf("root or leaf set holds %s, which left the graph", v.rep.Capability().Name)
			}
		}
	}
	// The ontology list: sorted by URI without duplicates, and counting what
	// the entries enumerate.
	listed := make(map[string]int, len(g.ontologies))
	for i, o := range g.ontologies {
		if i > 0 && g.ontologies[i-1].uri >= o.uri {
			return fmt.Errorf("ontology list %v is not sorted and duplicate-free", g.ontologies)
		}
		listed[o.uri] = o.count
	}
	if !maps.Equal(uses, listed) {
		return fmt.Errorf("ontology use counts %v, entries enumerate %v", g.ontologies, uses)
	}
	return nil
}

// duplicate returns a vertex the set holds more than once, or nil.
func duplicate(set []*vertex) *vertex {
	for i, v := range set {
		if slices.Contains(set[:i], v) {
			return v
		}
	}
	return nil
}

// redundantSucc returns a successor of v that some other successor of v
// also reaches, or nil: the graph is a transitive reduction when no vertex
// has one. The search stays ahead of v's last successor in the walk order.
func (g *graph) redundantSucc(v *vertex) *vertex {
	limit := int32(-1)
	for _, s := range v.succs {
		limit = max(limit, g.pos[s.slot])
	}
	seen := make(map[*vertex]bool)
	pending := slices.Clone(v.succs)
	for len(pending) > 0 {
		x := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		for _, s := range x.succs {
			if slices.Contains(v.succs, s) {
				return s
			}
			if !seen[s] && g.pos[s.slot] < limit {
				seen[s] = true
				pending = append(pending, s)
			}
		}
	}
	return nil
}

func isIn(set map[*vertex]struct{}, v *vertex) bool {
	_, ok := set[v]
	return ok
}
