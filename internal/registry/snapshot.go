// Snapshot read path: the directory publishes an immutable, compiled
// view of its graphs through an atomic pointer, so queries never take a
// lock. Writers (Register/Deregister) serialize on Directory.mu, mutate
// the builder-side graph structures, patch the compiled form of the
// graphs they touched and publish a snapshot derived from the previous
// one: untouched compiled graphs, ontology-index lists and the
// ontology-key list are shared with it, and the structural counters are
// adjusted by the touched graphs' difference. Inside a touched graph the
// same holds one level down: a vertex keeps its slot in the compiled
// vertex array, the walk order is a permutation threaded through that
// array instead of being its layout, and the next compiled form is the
// previous one with only the touched vertices (the one written, its
// parents and children, a vertex a removal moved and its neighbours)
// compiled afresh. A publish therefore costs what the write changed, plus
// three terms that stay linear and cheap: a flat copy of the graph
// pointer list (8 bytes per graph, one memmove), a copy of the ontology
// index's map header (one slot per ontology URI), and, per touched graph,
// a flat copy of its vertex array (one snapVertex per vertex, one
// memmove) with the walk order threaded through it again (one 4-byte
// store per vertex; the builder also shifts its own order and positions
// past the splice point, 8 bytes per vertex). Nothing is sorted, looked up
// in a map or allocated per service, per entry, per untouched graph or
// per untouched vertex: the only maps are the two ontology indexes, keyed
// by URI and consulted once per URI of a touched graph; a graph's own
// ontology set, compiled or not, is a short sorted slice that covers
// searches, and the builder's adjacency, root and leaf sets are slices too.
//
// The publish invariant: every object reachable from a published
// *snapshot is never written again — in particular a slice a snapshot
// holds is never appended to, only replaced by a fresh one in the next
// snapshot. The //sdp:immutable annotations below make the immutcheck
// analyzer enforce that mechanically — any field write outside a
// new*/make*/clone* construction function is a lint error, so the
// lock-free readers stay sound by construction.
package registry

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"sariadne/internal/match"
)

// snapVertex is the compiled form of one graph vertex. Predecessors and
// successors are slots: indices into the owning snapGraph's vertex slice.
//
//sdp:immutable
type snapVertex struct {
	rep     *match.Encoded
	entries []*Entry
	preds   []int32
	succs   []int32
	root    bool
	leaf    bool
	// next is the slot that follows this one in the walk order, -1 at its
	// end.
	next int32
}

// tally is the additive part of Stats: the counters a snapshot can
// maintain by subtracting a touched graph's old compiled form and adding
// its new one.
type tally struct {
	vertices, edges, entries, roots, leaves int
}

func (t tally) plus(o tally) tally {
	return tally{t.vertices + o.vertices, t.edges + o.edges, t.entries + o.entries, t.roots + o.roots, t.leaves + o.leaves}
}

func (t tally) minus(o tally) tally {
	return tally{t.vertices - o.vertices, t.edges - o.edges, t.entries - o.entries, t.roots - o.roots, t.leaves - o.leaves}
}

// snapGraph is the compiled, immutable form of one capability DAG.
//
//sdp:immutable
type snapGraph struct {
	// vertices is indexed by slot: a vertex keeps its slot from one
	// compiled form of the graph to the next (unless a removal moved it
	// into the slot it freed), so the next form is this array copied flat
	// with the touched slots rebuilt.
	vertices []snapVertex
	// first is where the walk order starts. The order is threaded through
	// the vertices (snapVertex.next) and visits every slot once, every
	// predecessor of a vertex before it, which is what lets the query walk
	// see parents before children in one pass.
	first int32
	// ontologies is the sorted union of ontology URIs used by member
	// capabilities, which covers searches.
	ontologies []string
	tally      tally
}

// covers reports whether the graph's ontology set contains every URI the
// capability uses — the paper's graph pre-selection index.
func (g *snapGraph) covers(uris []string) bool {
	for _, u := range uris {
		if _, ok := slices.BinarySearch(g.ontologies, u); !ok {
			return false
		}
	}
	return true
}

// snapshot is one published, immutable view of the whole directory.
// Readers load it from Directory.snap and use it without locks.
//
//sdp:immutable
type snapshot struct {
	// graphs parallels the builder's graph list, in creation order.
	graphs []*snapGraph
	// byOntology indexes graphs by the ontology URIs they contain, so
	// query-time graph pre-selection does not scan every graph.
	byOntology map[string][]*snapGraph
	// ontologyKeys is the sorted set of stored capabilities' ontology-set
	// keys, the unit hashed into the Section 4 Bloom summaries. It is the
	// previous snapshot's slice unless the write made a key appear or
	// disappear.
	ontologyKeys []string
	tally        tally
}

// candidateGraphs returns the graphs whose ontology set covers uris,
// using the index: it scans only the graphs listed under the rarest URI.
// With no URI constraint every graph qualifies.
func (s *snapshot) candidateGraphs(uris []string) []*snapGraph {
	if len(uris) == 0 {
		return s.graphs
	}
	var smallest []*snapGraph
	for i, u := range uris {
		list, ok := s.byOntology[u]
		if !ok {
			return nil
		}
		if i == 0 || len(list) < len(smallest) {
			smallest = list
		}
	}
	out := make([]*snapGraph, 0, len(smallest))
	for _, g := range smallest {
		if g.covers(uris) {
			out = append(out, g)
		}
	}
	return out
}

// stats, services, ontologyURIs and dump derive the diagnostic views on
// read. Only diagnostics, the daemon's stats op and tests ask for them,
// so they walk the snapshot when called instead of every publish paying
// to keep them precomputed.

func (s *snapshot) stats() Stats {
	st := Stats{
		Graphs:   len(s.graphs),
		Vertices: s.tally.vertices,
		Edges:    s.tally.edges,
		Entries:  s.tally.entries,
		Roots:    s.tally.roots,
		Leaves:   s.tally.leaves,
	}
	for _, g := range s.graphs {
		st.MaxGraphVertices = max(st.MaxGraphVertices, len(g.vertices))
	}
	return st
}

func (s *snapshot) services() []string {
	seen := make(map[string]struct{})
	for _, g := range s.graphs {
		for i := range g.vertices {
			for _, e := range g.vertices[i].entries {
				seen[e.Service] = struct{}{}
			}
		}
	}
	return slices.Sorted(maps.Keys(seen))
}

func (s *snapshot) ontologyURIs() []string {
	return slices.Sorted(maps.Keys(s.byOntology))
}

func (s *snapshot) dump() string {
	var b strings.Builder
	for i, g := range s.graphs {
		fmt.Fprintf(&b, "graph %d (ontologies: %s)\n", i, strings.Join(g.ontologies, ", "))
		order := make([]int, len(g.vertices))
		for j := range order {
			order[j] = j
		}
		sort.Slice(order, func(a, c int) bool {
			return g.vertices[order[a]].rep.Capability().Name < g.vertices[order[c]].rep.Capability().Name
		})
		for _, j := range order {
			v := &g.vertices[j]
			names := make([]string, 0, len(v.entries))
			for _, e := range v.entries {
				names = append(names, e.String())
			}
			succs := make([]string, 0, len(v.succs))
			for _, s := range v.succs {
				succs = append(succs, g.vertices[s].rep.Capability().Name)
			}
			sort.Strings(succs)
			marker := ""
			if v.root {
				marker += " [root]"
			}
			if v.leaf {
				marker += " [leaf]"
			}
			fmt.Fprintf(&b, "  %s%s -> {%s} entries: %s\n", v.rep.Capability().Name, marker, strings.Join(succs, ", "), strings.Join(names, ", "))
		}
	}
	return b.String()
}

// newSnapVertex compiles one builder vertex. Entries are copied: the
// builder edits its entry list in place, and a published snapshot must
// not share a backing array with anything the builder will mutate. Both
// adjacency lists are windows of one array, sorted by slot.
func newSnapVertex(v *vertex) snapVertex {
	adjacent := make([]int32, 0, len(v.preds)+len(v.succs))
	for _, p := range v.preds {
		adjacent = append(adjacent, p.slot)
	}
	n := len(adjacent)
	for _, s := range v.succs {
		adjacent = append(adjacent, s.slot)
	}
	slices.Sort(adjacent[:n])
	slices.Sort(adjacent[n:])
	return snapVertex{
		rep:     v.rep,
		entries: slices.Clone(v.entries),
		preds:   adjacent[:n:n],
		succs:   adjacent[n:],
		root:    len(v.preds) == 0,
		leaf:    len(v.succs) == 0,
	}
}

// clonePatched returns the compiled form of builder graph g: a flat copy
// of prev, its previous compiled form, in which only the slots of the
// vertices the write touched are compiled afresh, threaded in g's walk
// order. prev is nil for a graph the write created, all of whose vertices
// are touched. Every slot whose occupant or content differs from prev's
// holds a touched vertex (see graph.touched), so the copy is right
// everywhere else.
func clonePatched(prev *snapGraph, g *graph) *snapGraph {
	sg := &snapGraph{
		vertices: make([]snapVertex, len(g.slots)),
		first:    g.order[0],
		tally:    tally{vertices: len(g.slots), edges: g.edges, entries: g.entries, roots: len(g.roots), leaves: len(g.leaves)},
	}
	if prev != nil {
		copy(sg.vertices, prev.vertices)
		sg.ontologies = prev.ontologies
	}
	if g.ontoStale {
		sg.ontologies = make([]string, len(g.ontologies))
		for i, o := range g.ontologies {
			sg.ontologies[i] = o.uri
		}
	}
	for _, v := range g.touched {
		if v.slot >= 0 {
			sg.vertices[v.slot] = newSnapVertex(v)
		}
	}
	last := int32(-1)
	for k := len(g.order) - 1; k >= 0; k-- {
		sg.vertices[g.order[k]].next = last
		last = g.order[k]
	}
	return sg
}

// graphChange is one touched graph's compiled form before and after a
// write: old is nil for a graph the write created, new for one it
// emptied.
type graphChange struct {
	old, new *snapGraph
}

// newSnapshot derives the next publishable snapshot from prev and the
// graphs the write touched; everything else is shared with prev. changes
// lists created graphs in creation order (they go to the end of the
// graph list, as in the builder's); index is the builder's ontology
// index, whose graphs already carry their new compiled form; keys is the
// ontology-key list to publish. Caller holds d.mu.
func newSnapshot(prev *snapshot, changes []graphChange, index map[string]*ontoIndex, keys []string) *snapshot {
	s := &snapshot{
		graphs:       make([]*snapGraph, len(prev.graphs), len(prev.graphs)+len(changes)),
		byOntology:   maps.Clone(prev.byOntology),
		ontologyKeys: keys,
		tally:        prev.tally,
	}
	copy(s.graphs, prev.graphs)
	var touched []string
	for _, ch := range changes {
		switch {
		case ch.old == nil:
			s.graphs = append(s.graphs, ch.new)
		case ch.new == nil:
			i := slices.Index(s.graphs, ch.old)
			s.graphs = slices.Delete(s.graphs, i, i+1)
		default:
			s.graphs[slices.Index(s.graphs, ch.old)] = ch.new
		}
		if ch.old != nil {
			s.tally = s.tally.minus(ch.old.tally)
			touched = append(touched, ch.old.ontologies...)
		}
		if ch.new != nil {
			s.tally = s.tally.plus(ch.new.tally)
			touched = append(touched, ch.new.ontologies...)
		}
	}
	// Every list holding a touched graph is listed under one of that
	// graph's URIs; the other lists hold only pointers that did not move.
	slices.Sort(touched)
	for _, u := range slices.Compact(touched) {
		idx := index[u]
		if idx == nil {
			delete(s.byOntology, u)
			continue
		}
		sl := make([]*snapGraph, len(idx.graphs))
		for i, g := range idx.graphs {
			sl[i] = g.compiled
		}
		s.byOntology[idx.uri] = sl
	}
	return s
}

// matchScratch pools the per-graph matched bitmaps used by the query
// walk, so steady-state queries allocate nothing for traversal state.
// The pool holds *[]bool (not []bool) to keep Put from boxing a fresh
// interface allocation on every cycle.
var matchScratch = sync.Pool{New: func() any { return new([]bool) }}

// scratchFor returns a pooled bool slice of length n. The contents are
// arbitrary: the topological walk assigns every index before reading it,
// so no clearing is needed.
func scratchFor(n int) *[]bool {
	sp := matchScratch.Get().(*[]bool)
	if cap(*sp) < n {
		*sp = make([]bool, n)
	}
	*sp = (*sp)[:n]
	return sp
}
