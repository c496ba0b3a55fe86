package registry

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"sariadne/internal/match"
	"sariadne/internal/profile"
)

// checkInvariants verifies structural invariants; tests call it after
// mutation sequences. It returns a description of the first violation.
func (d *Directory) checkInvariants() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Between writes no graph has a draft, and the snapshot lists exactly
	// the writer's graphs, each by its published version under its key.
	snap := d.snap.Load()
	if len(d.dirty) > 0 || len(snap.graphs) != len(d.graphs) {
		return fmt.Errorf("%d graphs queued for publishing; snapshot has %d graphs, the writer %d", len(d.dirty), len(snap.graphs), len(d.graphs))
	}
	for gi, sg := range snap.graphs {
		g := d.graphs[sg.key]
		if g == nil || g.draft != nil || g.cur != sg {
			return fmt.Errorf("graph %d: not the writer's graph of key %q, unpublished changes, or the snapshot holds another version", gi, sg.key)
		}
		if err := g.check(d.matcher); err != nil {
			return fmt.Errorf("graph %d: %w", gi, err)
		}
		if !sg.covers(sg.ontologies) || sg.covers([]string{"http://no.such/ontology"}) {
			return fmt.Errorf("graph %d lists ontologies %v but does not cover exactly those", gi, sg.ontologies)
		}
	}
	// The service table places every entry where a published node of its
	// key's graph lists it, and the snapshot counts as many entries as the
	// table holds.
	wantEntries := 0
	for name, ad := range d.byService {
		wantEntries += len(ad.entries)
		for _, e := range ad.entries {
			if e.g != d.graphs[e.Capability.OntologyKey()] || e.slot < 0 || int(e.slot) >= len(e.g.cur.nodes) || !slices.Contains(e.g.cur.nodes[e.slot].entries, e.Entry) {
				return fmt.Errorf("entry %s of %s is not in the node it names of the graph of its key", e, name)
			}
		}
	}
	if int(snap.tally.entries) != wantEntries {
		return fmt.Errorf("snapshot has %d entries, the service table %d", snap.tally.entries, wantEntries)
	}
	// Every record holds the string that keys it and its version numbers,
	// rising, and a withdrawn one nothing else. A key outlives every
	// document stored under it, so it is a piece of none.
	var docs []string
	for name, ad := range d.byService {
		switch {
		case unsafe.StringData(ad.name) != unsafe.StringData(name) || len(ad.versions) == 0 || !rising(ad.versions):
			return fmt.Errorf("record of %s holds name %q and versions %v", name, ad.name, ad.versions)
		case ad.live():
			docs = append(docs, ad.doc)
		case ad.entries != nil || ad.doc != "":
			return fmt.Errorf("withdrawn %s keeps %d entries and a document of %d bytes", name, len(ad.entries), len(ad.doc))
		}
	}
	for name := range d.byService {
		for _, doc := range docs {
			if within(name, doc) {
				return fmt.Errorf("the key of %s is a piece of a stored document", name)
			}
		}
	}
	return checkSnapshotConsistent(snap)
}

// rising reports whether every number in vs is above the one before it.
func rising(vs []uint64) bool {
	for i := 1; i < len(vs); i++ {
		if vs[i] <= vs[i-1] {
			return false
		}
	}
	return true
}

// liveNames is the directory's whole listing: its live names in ascending
// order, one page.
func liveNames(d *Directory) []string {
	names, _, _ := d.Page("", math.MaxInt)
	return names
}

// within reports whether s is a piece of doc: whether its bytes are some of
// doc's.
func within(s, doc string) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(doc)))
	return len(s) > 0 && p >= lo && p < lo+uintptr(len(doc))
}

// check verifies one graph between writes: the published tables (slots,
// walk order, counters, clipped so that nothing appends to them in place),
// the writer's root list against them, the key every member must have, edges
// that respect Match, and no edge that another path already implies.
func (g *graph) check(m match.ConceptMatcher) error {
	t := &g.cur.tables
	if len(t.order) != len(t.nodes) || cap(t.nodes) != len(t.nodes) || cap(t.order) != len(t.order) {
		return fmt.Errorf("%d slots (cap %d), %d in the walk order (cap %d)", len(t.nodes), cap(t.nodes), len(t.order), cap(t.order))
	}
	pos, err := positions(t)
	if err != nil {
		return err
	}
	name := func(s int32) string { return t.nodes[s].rep.Capability().Name }
	member := func(s int32) bool { return s >= 0 && int(s) < len(t.nodes) }
	var sum tally
	if !slices.IsSorted(t.ontologies) || t.key != profile.OntologySetKey(t.ontologies) {
		return fmt.Errorf("key %q is not that of the ontology list %v", t.key, t.ontologies)
	}
	for i, v := range t.nodes {
		slot := int32(i)
		if (len(v.preds) == 0) != slices.Contains(g.roots, slot) {
			return fmt.Errorf("root bookkeeping wrong for %s", name(slot))
		}
		for _, set := range [][]int32{v.preds, v.succs} {
			if dup := duplicate(set); dup >= 0 {
				return fmt.Errorf("adjacency of %s holds %s twice", name(slot), name(dup))
			}
		}
		if len(v.entries) == 0 {
			return fmt.Errorf("empty node %s", name(slot))
		}
		for _, e := range v.entries {
			// (A capability over an ontology without a code table matches
			// nothing, itself included, and sits alone.)
			if c := v.rep.Capability(); c != e.Capability && !(match.Match(m, c, e.Capability) && match.Match(m, e.Capability, c)) {
				return fmt.Errorf("entry %s is not equivalent to its node's representative %s", e, c.Name)
			}
			if key := e.Capability.OntologyKey(); key != t.key {
				return fmt.Errorf("entry %s has ontology-set key %q, its graph %q", e, key, t.key)
			}
		}
		// With every edge running forward in the walk order the graph is
		// acyclic.
		for _, s := range v.succs {
			if !member(s) || !slices.Contains(t.nodes[s].preds, slot) {
				return fmt.Errorf("edge %s -> slot %d is asymmetric or leaves the graph", name(slot), s)
			}
			if pos[slot] >= pos[s] {
				return fmt.Errorf("walk order visits %s before its predecessor %s", name(s), name(slot))
			}
			if !match.Match(m, v.rep.Capability(), t.nodes[s].rep.Capability()) {
				return fmt.Errorf("edge %s -> %s violates Match", name(slot), name(s))
			}
		}
		for _, p := range v.preds {
			if !member(p) || !slices.Contains(t.nodes[p].succs, slot) {
				return fmt.Errorf("edge slot %d -> %s is asymmetric or leaves the graph", p, name(slot))
			}
		}
		if s := redundantSucc(t, pos, slot); s >= 0 {
			return fmt.Errorf("edge %s -> %s is implied by a longer path", name(slot), name(s))
		}
		sum.vertices++
		sum.edges += int32(len(v.succs))
		sum.entries += int32(len(v.entries))
		if len(v.preds) == 0 {
			sum.roots++
		}
		if len(v.succs) == 0 {
			sum.leaves++
		}
	}
	// The root list holds members only, once each: with its length and the
	// per-node checks above it is exactly the roots.
	if sum != t.tally || int(sum.roots) != len(g.roots) || duplicate(g.roots) >= 0 {
		return fmt.Errorf("counts %+v and %d listed roots; nodes enumerate %+v", t.tally, len(g.roots), sum)
	}
	return nil
}

// positions inverts a version's walk order, which must visit every slot
// once.
func positions(t *tables) ([]int32, error) {
	pos := make([]int32, len(t.nodes))
	for i := range pos {
		pos[i] = -1
	}
	for k, s := range t.order {
		if s < 0 || int(s) >= len(pos) || pos[s] >= 0 {
			return nil, fmt.Errorf("walk order %v is not a permutation of %d slots", t.order, len(t.nodes))
		}
		pos[s] = int32(k)
	}
	if slices.Contains(pos, -1) {
		return nil, errors.New("walk order misses a slot")
	}
	return pos, nil
}

// duplicate returns a slot the set holds more than once, or -1.
func duplicate(set []int32) int32 {
	for i, v := range set {
		if slices.Contains(set[:i], v) {
			return v
		}
	}
	return -1
}

// redundantSucc returns a successor of v that some other successor of v
// also reaches, or -1: the graph is a transitive reduction when no node
// has one. The search stays ahead of v's last successor in the walk order.
func redundantSucc(t *tables, pos []int32, v int32) int32 {
	succs := t.nodes[v].succs
	limit := int32(-1)
	for _, s := range succs {
		limit = max(limit, pos[s])
	}
	seen := make(map[int32]bool)
	pending := slices.Clone(succs)
	for len(pending) > 0 {
		x := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		for _, s := range t.nodes[x].succs {
			if slices.Contains(succs, s) {
				return s
			}
			if !seen[s] && pos[s] < limit {
				seen[s] = true
				pending = append(pending, s)
			}
		}
	}
	return -1
}
