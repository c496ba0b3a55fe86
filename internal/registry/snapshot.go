// Snapshot read path: the directory publishes an immutable view of its
// graphs through an atomic pointer, so queries never take a lock. There is
// one graph per ontology-set key, and it has one form, the published one:
// immutable nodes that name their neighbours by slot, reached through a
// per-graph slot table, with the topological walk order as a plain array of
// slots beside it. Writers (Register/Deregister) serialize on Directory.mu
// and classify over those same nodes. What a write changes it replaces: on
// its first touch of a graph it copies the graph's two tables into a draft
// (8 + 4 bytes per node, plus 4 for the writer's own inverse of the walk
// order), builds a new node for each one whose entries or adjacency change —
// the one written, its parents and children, a node a removal moved to
// another slot and its neighbours — and stores it in the draft's slot table.
// Publishing wraps each draft's tables, as they are, in the graph's next
// version and derives the next snapshot from the previous one: untouched
// graphs are shared with it, the ontology index is too unless a key appeared
// or disappeared, and the structural counters are adjusted by the touched
// graphs' difference. A publish therefore costs what the write changed, plus
// two terms that stay linear and cheap: a flat copy of the graph pointer list
// (8 bytes per ontology-set key) and the table copies above (16 bytes per
// node of a touched key's graph). Nothing is sorted or allocated per
// service, per entry or per untouched node, and the one map is rebuilt, over
// the keys, only by a write that changes the key set.
//
// The advertisement's document is the writer's: it sits in the service
// table (Directory.byService) beside the places of the advertisement's
// entries and the name's version numbers, and the names those entries hold
// are substrings of it, but for the service's own, which the table keeps.
//
// The publish invariant: every object reachable from a published
// *snapshot is never written again — a node is replaced, never edited, and
// a slice a snapshot holds is never appended to, only replaced by a fresh
// one in the next snapshot. The //sdp:immutable annotations below make the
// immutcheck analyzer enforce that mechanically — any field write outside a
// new*/make*/clone* construction function is a lint error, so the
// lock-free readers stay sound by construction.
package registry

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"sariadne/internal/match"
)

// node is one vertex of a capability DAG: an equivalence class of
// capabilities. Predecessors and successors are slots, indices into the
// owning graph's slot table: unordered sets, two windows of one array.
//
//sdp:immutable
type node struct {
	// rep is the representative capability used for graph navigation, in
	// encoded form; all entries of the node match rep mutually.
	rep     *match.Encoded
	entries []*Entry
	preds   []int32
	succs   []int32
}

// newNode builds a node of the given content. It copies the adjacency, so
// callers hand in scratch or another node's; entries it keeps as they are.
func newNode(rep *match.Encoded, entries []*Entry, preds, succs []int32) *node {
	adjacent := append(append(make([]int32, 0, len(preds)+len(succs)), preds...), succs...)
	n := len(preds)
	return &node{rep: rep, entries: entries, preds: adjacent[:n:n], succs: adjacent[n:]}
}

// tally is the additive part of Stats: the counters a snapshot maintains
// by subtracting a touched graph's old version and adding its new one.
type tally struct {
	vertices, edges, entries, roots, leaves int32
}

func (t tally) plus(o tally) tally {
	return tally{t.vertices + o.vertices, t.edges + o.edges, t.entries + o.entries, t.roots + o.roots, t.leaves + o.leaves}
}

func (t tally) minus(o tally) tally {
	return tally{t.vertices - o.vertices, t.edges - o.edges, t.entries - o.entries, t.roots - o.roots, t.leaves - o.leaves}
}

// tables is the content of one version of a graph: a published version
// (snapGraph) holds it immutable, the writer's draft of the next its own.
type tables struct {
	// nodes is the slot table. A node keeps its slot from one version of
	// the graph to the next: a new node takes the next slot, a removed one
	// hands its slot to the last (swap-delete), so the table stays dense.
	nodes []*node
	// order is the walk order, a topological permutation of the slots:
	// every predecessor of a node comes before it, which is what lets the
	// query walk see parents before children in one pass.
	order []int32
	// key is the ontology-set key every member capability has and ontologies
	// the sorted URIs it joins, which covers searches: the directory's own
	// copies, not pieces of some advertisement, and the graph's for life.
	key        string
	ontologies []string
	tally      tally
}

// covers reports whether the graph's ontology set contains every URI a
// matching provider must use — the paper's graph pre-selection index.
func (t *tables) covers(uris []string) bool {
	for _, u := range uris {
		if _, ok := slices.BinarySearch(t.ontologies, u); !ok {
			return false
		}
	}
	return true
}

// snapGraph is one published version of an ontology set's capability DAG.
//
//sdp:immutable
type snapGraph struct {
	tables
}

// newSnapGraph publishes a draft: its tables become the version's, clipped
// so that nothing can be appended to them in place, and the writer makes
// the next draft from copies. roots is the writer's count of root nodes.
func newSnapGraph(dr *draft, roots int) *snapGraph {
	t := dr.tables
	t.nodes, t.order = slices.Clip(t.nodes), slices.Clip(t.order)
	t.tally.vertices, t.tally.roots = int32(len(t.nodes)), int32(roots)
	return &snapGraph{tables: t}
}

// snapshot is one published, immutable view of the whole directory.
// Readers load it from Directory.snap and use it without locks.
//
//sdp:immutable
type snapshot struct {
	// graphs holds the graph of every stored ontology-set key, sorted by key.
	graphs []*snapGraph
	// byOntology indexes graphs by the ontology URIs of their keys, as
	// ascending positions in graphs, so query-time graph pre-selection does
	// not scan every graph. Positions outlive the versions of the graphs at
	// them: the index is the previous snapshot's unless the write made a key
	// appear or disappear.
	byOntology map[string][]int32
	tally      tally
}

// candidateGraphs returns the graphs whose ontology set covers uris,
// using the index: it scans only the graphs listed under the rarest URI.
// With no URI constraint every graph qualifies.
func (s *snapshot) candidateGraphs(uris []string) []*snapGraph {
	if len(uris) == 0 {
		return s.graphs
	}
	var smallest []int32
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
	for _, at := range smallest {
		if g := s.graphs[at]; g.covers(uris) {
			out = append(out, g)
		}
	}
	return out
}

// stats, ontologyURIs and dump derive the diagnostic views on read. Only
// diagnostics, the daemon's stats op and tests ask for them, so they walk
// the snapshot when called instead of every publish paying to keep them
// precomputed.

func (s *snapshot) stats() Stats {
	st := Stats{
		Graphs:   len(s.graphs),
		Vertices: int(s.tally.vertices),
		Edges:    int(s.tally.edges),
		Entries:  int(s.tally.entries),
		Roots:    int(s.tally.roots),
		Leaves:   int(s.tally.leaves),
	}
	for _, g := range s.graphs {
		st.MaxGraphVertices = max(st.MaxGraphVertices, len(g.nodes))
	}
	return st
}

func (s *snapshot) ontologyURIs() []string {
	return slices.Sorted(maps.Keys(s.byOntology))
}

func (s *snapshot) dump() string {
	var b strings.Builder
	for i, g := range s.graphs {
		fmt.Fprintf(&b, "graph %d (ontologies: %s)\n", i, strings.Join(g.ontologies, ", "))
		byName := slices.Clone(g.nodes)
		slices.SortFunc(byName, func(a, c *node) int {
			return strings.Compare(a.rep.Capability().Name, c.rep.Capability().Name)
		})
		for _, v := range byName {
			names := make([]string, 0, len(v.entries))
			for _, e := range v.entries {
				names = append(names, e.String())
			}
			succs := make([]string, 0, len(v.succs))
			for _, s := range v.succs {
				succs = append(succs, g.nodes[s].rep.Capability().Name)
			}
			slices.Sort(succs)
			marker := ""
			if len(v.preds) == 0 {
				marker += " [root]"
			}
			if len(v.succs) == 0 {
				marker += " [leaf]"
			}
			fmt.Fprintf(&b, "  %s%s -> {%s} entries: %s\n", v.rep.Capability().Name, marker, strings.Join(succs, ", "), strings.Join(names, ", "))
		}
	}
	return b.String()
}

// graphChange is one touched graph's version before and after a write:
// old is nil for a graph the write created, new for one it emptied.
type graphChange struct {
	old, new *snapGraph
}

// newSnapshot derives the next publishable snapshot from prev and the
// graphs the write touched, each of another key; everything else is shared
// with prev. Caller holds d.mu.
func newSnapshot(prev *snapshot, changes []graphChange) *snapshot {
	s := &snapshot{
		graphs:     make([]*snapGraph, len(prev.graphs), len(prev.graphs)+len(changes)),
		byOntology: prev.byOntology,
		tally:      prev.tally,
	}
	copy(s.graphs, prev.graphs)
	keysChanged := false
	for _, ch := range changes {
		key := cmp.Or(ch.old, ch.new).key
		at, _ := slices.BinarySearchFunc(s.graphs, key, func(g *snapGraph, key string) int { return strings.Compare(g.key, key) })
		switch {
		case ch.old == nil:
			s.graphs = slices.Insert(s.graphs, at, ch.new)
		case ch.new == nil:
			s.graphs = slices.Delete(s.graphs, at, at+1)
		default:
			s.graphs[at] = ch.new
		}
		if ch.old != nil {
			s.tally = s.tally.minus(ch.old.tally)
		}
		if ch.new != nil {
			s.tally = s.tally.plus(ch.new.tally)
		}
		keysChanged = keysChanged || ch.old == nil || ch.new == nil
	}
	if keysChanged {
		s.byOntology = make(map[string][]int32)
		for at, g := range s.graphs {
			for _, u := range g.ontologies {
				s.byOntology[u] = append(s.byOntology[u], int32(at))
			}
		}
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
