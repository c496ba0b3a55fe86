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
		for u := range g.ontologies {
			if !slices.Contains(d.byOntology[u], g) {
				return fmt.Errorf("graph %d uses %s but is not listed under it", gi, u)
			}
		}
	}
	for u, list := range d.byOntology {
		for i, g := range list {
			if _, ok := g.ontologies[u]; !ok || !slices.Contains(d.graphs, g) || slices.Contains(list[:i], g) {
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
	if len(d.where) != wantEntries {
		return fmt.Errorf("entry locator holds %d entries, builder %d", len(d.where), wantEntries)
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
		if want := slices.Sorted(maps.Keys(g.ontologies)); !slices.Equal(sg.ontologies, want) || len(sg.ontoSet) != len(want) || !sg.covers(want) {
			return fmt.Errorf("snapshot graph %d lists ontologies %v (set of %d), builder %v", gi, sg.ontologies, len(sg.ontoSet), want)
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
		if (len(v.preds) == 0) != isIn(g.roots, v) {
			return fmt.Errorf("root bookkeeping wrong for %s", v.rep.Capability().Name)
		}
		if (len(v.succs) == 0) != isIn(g.leaves, v) {
			return fmt.Errorf("leaf bookkeeping wrong for %s", v.rep.Capability().Name)
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
		for s := range v.succs {
			if !member(s) || !isIn(s.preds, v) {
				return fmt.Errorf("edge %s -> %s is asymmetric or leaves the graph", v.rep.Capability().Name, s.rep.Capability().Name)
			}
			if g.pos[v.slot] >= g.pos[s.slot] {
				return fmt.Errorf("walk order visits %s before its predecessor %s", s.rep.Capability().Name, v.rep.Capability().Name)
			}
			if !match.Match(m, v.rep.Capability(), s.rep.Capability()) {
				return fmt.Errorf("edge %s -> %s violates Match", v.rep.Capability().Name, s.rep.Capability().Name)
			}
		}
		for p := range v.preds {
			if !member(p) || !isIn(p.succs, v) {
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
	if !maps.Equal(uses, g.ontologies) {
		return fmt.Errorf("ontology use counts %v, entries enumerate %v", g.ontologies, uses)
	}
	return nil
}

// redundantSucc returns a successor of v that some other successor of v
// also reaches, or nil: the graph is a transitive reduction when no vertex
// has one. The search stays ahead of v's last successor in the walk order.
func (g *graph) redundantSucc(v *vertex) *vertex {
	limit := int32(-1)
	for s := range v.succs {
		limit = max(limit, g.pos[s.slot])
	}
	seen := make(map[*vertex]bool)
	var pending []*vertex
	for s := range v.succs {
		pending = append(pending, s)
	}
	for len(pending) > 0 {
		x := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		for s := range x.succs {
			if isIn(v.succs, s) {
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
