// Snapshot read path: the directory publishes an immutable, compiled
// view of its graphs through an atomic pointer, so queries never take a
// lock. Writers (Register/Deregister) serialize on Directory.mu, mutate
// the builder-side graph structures, recompile the graphs they touched
// and publish a snapshot derived from the previous one: untouched
// compiled graphs, ontology-index lists and the ontology-key list are
// shared with it, and the structural counters are adjusted by the
// touched graphs' difference. A publish therefore costs what the write
// changed, plus two terms that stay linear and cheap: a flat copy of the
// graph pointer list (8 bytes per graph, one memmove) and a copy of the
// ontology index's map header (one slot per ontology URI). Nothing is
// walked per service, per entry or per vertex of an untouched graph.
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

	"sariadne/internal/profile"
)

// snapVertex is the compiled form of one graph vertex. Predecessors and
// successors are indices into the owning snapGraph's vertex slice.
//
//sdp:immutable
type snapVertex struct {
	rep     *profile.Capability
	entries []*Entry
	// preds indices are all smaller than this vertex's own index: the
	// owning snapGraph stores vertices in topological order, which is
	// what lets the query walk visit parents before children in one
	// forward scan.
	preds []int32
	succs []int32
	root  bool
	leaf  bool
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
	// vertices is topologically ordered: every predecessor of
	// vertices[i] has an index < i.
	vertices []snapVertex
	// ontologies is the sorted union of ontology URIs used by member
	// capabilities; ontoSet is the same set keyed for covers().
	ontologies []string
	ontoSet    map[string]struct{}
	tally      tally
}

// covers reports whether the graph's ontology set contains every URI the
// capability uses — the paper's graph pre-selection index.
func (g *snapGraph) covers(uris []string) bool {
	for _, u := range uris {
		if _, ok := g.ontoSet[u]; !ok {
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
			return g.vertices[order[a]].rep.Name < g.vertices[order[c]].rep.Name
		})
		for _, j := range order {
			v := &g.vertices[j]
			names := make([]string, 0, len(v.entries))
			for _, e := range v.entries {
				names = append(names, e.String())
			}
			succs := make([]string, 0, len(v.succs))
			for _, s := range v.succs {
				succs = append(succs, g.vertices[s].rep.Name)
			}
			sort.Strings(succs)
			marker := ""
			if v.root {
				marker += " [root]"
			}
			if v.leaf {
				marker += " [leaf]"
			}
			fmt.Fprintf(&b, "  %s%s -> {%s} entries: %s\n", v.rep.Name, marker, strings.Join(succs, ", "), strings.Join(names, ", "))
		}
	}
	return b.String()
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
// is the name rank (index into verts) of the i-th vertex. It runs in
// O((V+E) log V) over slice-indexed state; each vertex's rank field is
// the scratch that maps an edge's endpoint back to its slot.
func topoOrder(verts []*vertex) []int32 {
	remaining := make([]int32, len(verts))
	ready := make(rankHeap, 0, len(verts))
	for i, v := range verts {
		v.rank = int32(i)
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
		for s := range verts[r].succs {
			remaining[s.rank]--
			if remaining[s.rank] == 0 {
				ready.push(s.rank)
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

// newSnapGraph compiles one builder graph into its immutable form. The
// vertex order is a deterministic topological sort (lexicographic by
// representative capability name among ready vertices), so snapshots of
// the same graph are structurally identical across publishes.
func newSnapGraph(g *graph) *snapGraph {
	verts := make([]*vertex, 0, len(g.vertices))
	edges, entries := 0, 0
	for v := range g.vertices {
		verts = append(verts, v)
		edges += len(v.succs)
		entries += len(v.entries)
	}
	slices.SortFunc(verts, func(a, b *vertex) int { return strings.Compare(a.rep.Name, b.rep.Name) })
	order := topoOrder(verts)
	// pos maps a vertex's name rank to its compiled index.
	pos := make([]int32, len(verts))
	for i, r := range order {
		pos[r] = int32(i)
	}

	sg := &snapGraph{
		vertices:   make([]snapVertex, len(order)),
		ontologies: make([]string, 0, len(g.ontologies)),
		ontoSet:    make(map[string]struct{}, len(g.ontologies)),
		tally:      tally{vertices: len(order), edges: edges, entries: entries, roots: len(g.roots), leaves: len(g.leaves)},
	}
	for u := range g.ontologies {
		sg.ontologies = append(sg.ontologies, u)
		sg.ontoSet[u] = struct{}{}
	}
	sort.Strings(sg.ontologies)
	// Every vertex's adjacency and entry list is a window of one backing
	// array per graph: two allocations instead of three per vertex.
	adjacent := make([]int32, 0, 2*edges)
	stored := make([]*Entry, 0, entries)
	window := func(from int) []int32 {
		if from == len(adjacent) {
			return nil
		}
		w := adjacent[from:len(adjacent):len(adjacent)]
		slices.Sort(w)
		return w
	}
	for i, r := range order {
		v := verts[r]
		sv := &sg.vertices[i]
		sv.rep = v.rep
		sv.root = len(v.preds) == 0
		sv.leaf = len(v.succs) == 0
		// Entries are copied: the builder removes entries in place, and a
		// published snapshot must not share a backing array with anything
		// the builder will mutate.
		from := len(stored)
		stored = append(stored, v.entries...)
		sv.entries = stored[from:len(stored):len(stored)]
		from = len(adjacent)
		for p := range v.preds {
			adjacent = append(adjacent, pos[p.rank])
		}
		sv.preds = window(from)
		from = len(adjacent)
		for s := range v.succs {
			adjacent = append(adjacent, pos[s.rank])
		}
		sv.succs = window(from)
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
func newSnapshot(prev *snapshot, changes []graphChange, index map[string][]*graph, keys []string) *snapshot {
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
		list := index[u]
		if len(list) == 0 {
			delete(s.byOntology, u)
			continue
		}
		sl := make([]*snapGraph, len(list))
		for i, g := range list {
			sl[i] = g.compiled
		}
		s.byOntology[u] = sl
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
