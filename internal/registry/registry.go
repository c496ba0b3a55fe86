// Package registry implements the directory-side classification of service
// advertisements from Section 3.3 of the paper: capabilities of networked
// services are organized into directed acyclic graphs of related
// capabilities, indexed by the set of ontologies they use, so that a
// request is matched against a handful of graph roots instead of every
// advertisement in the directory.
//
// Graph structure (paper, Section 3.3):
//
//   - two capabilities that match in both directions with semantic
//     distance 0 share a single vertex;
//   - otherwise, when Match(C1, C2) holds, C1 and C2 are distinct vertices
//     with a directed edge from the more generic C1 to C2;
//   - Roots(G) are vertices without predecessors (the most generic
//     capabilities), Leaves(G) those without successors.
//
// The Match relation is transitive, which gives the two facts the paper's
// algorithms rely on: if no root of a graph matches a request, nothing in
// the graph does (sound filtering), and the set of vertices matching a
// request is closed downward from the roots that match (so insertion and
// query only ever traverse matching regions).
package registry

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sariadne/internal/match"
	"sariadne/internal/profile"
)

// Common errors.
var (
	// ErrInvalidCapability is returned when registering a capability that
	// fails validation.
	ErrInvalidCapability = errors.New("registry: invalid capability")
)

// Entry is one advertised capability with its provenance.
type Entry struct {
	// Capability is the advertised provided capability.
	Capability *profile.Capability
	// Service and Provider identify the advertisement's origin.
	Service  string
	Provider string
	// enc is Capability as the directory's matcher encoded it when the
	// entry was made. Entries are reachable from published snapshots, so it
	// is never filled in or refreshed later: a capability that needs
	// encoding again gets a new Entry (see Directory.Reclassify).
	enc *match.Encoded
}

// placed is a stored entry and where the builder put it, so that
// withdrawing it does not search the directory. The place is the builder's
// and stays off the Entry, which snapshots and query results share.
type placed struct {
	*Entry
	g *graph
	v *vertex
}

// String renders the entry as service/capability.
func (e *Entry) String() string {
	return e.Service + "/" + e.Capability.Name
}

// Result is a query answer: a matching advertisement and its semantic
// distance from the request (lower is better).
type Result struct {
	Entry    *Entry
	Distance int
}

// vertex is an equivalence class of capabilities in one graph.
type vertex struct {
	// rep is the representative capability used for graph navigation, in
	// encoded form; all entries in the vertex match rep mutually.
	rep     *match.Encoded
	entries []*Entry
	// preds and succs are the adjacency sets, as unordered slices without
	// duplicates: most vertices have a handful of neighbours or none, which
	// a slice holds in 8 bytes each and a nil slice in none.
	preds []*vertex
	succs []*vertex
	// slot is the vertex's index in the owning graph's slot table, and so
	// in the compiled vertex array; -1 once the vertex has left the graph.
	slot int32
	// touched marks the vertex queued in graph.touched.
	touched bool
}

func newVertex(e *Entry) *vertex {
	return &vertex{rep: e.enc, entries: []*Entry{e}}
}

// drop removes v, which the set holds, from an unordered vertex set: the
// last element takes its place.
func drop(set []*vertex, v *vertex) []*vertex {
	i, last := slices.Index(set, v), len(set)-1
	set[i], set[last] = set[last], nil
	return set[:last]
}

// ontoUse counts the member entries of a graph that use one ontology.
type ontoUse struct {
	uri   string
	count int
}

// graph is one DAG of related capabilities plus its ontology index.
type graph struct {
	// ontologies counts, per ontology URI, the member entries using it,
	// sorted by URI; a URI no entry uses any more is deleted, so the URIs
	// are the graph's ontology set. Each URI is the directory's own copy
	// (ontoIndex.uri), not a piece of some advertisement. ontoStale records
	// that the set changed since the graph was last compiled.
	ontologies []ontoUse
	ontoStale  bool
	// slots is the vertex table: slots[i].slot == i. A new vertex takes the
	// next slot, a removed one hands its slot to the last (swap-delete), so
	// the table stays dense and every other vertex keeps its slot.
	slots []*vertex
	// order is the walk order, a topological permutation of the slots
	// (every predecessor of a vertex comes before it), and pos its inverse:
	// order[pos[s]] == s. Both are edited in place as vertices come and go;
	// a compiled graph has the order threaded through its vertex array.
	order []int32
	pos   []int32
	// roots and leaves are the vertices without predecessors and without
	// successors, as unordered sets like the adjacency.
	roots  []*vertex
	leaves []*vertex
	// edges and entries are running totals over the vertices.
	edges, entries int
	// touched lists the vertices whose compiled form is stale: created,
	// moved to another slot, or changed in entries or adjacency since the
	// last publish. The publish rebuilds those slots and no other.
	touched []*vertex
	// compiled is the graph's immutable form in the published snapshot
	// (nil until its first publish); dirty marks it stale, i.e. the graph
	// is queued in Directory.dirty for the next publish.
	compiled *snapGraph
	dirty    bool
}

// ontology returns where uri stands, or would stand, in g.ontologies.
func (g *graph) ontology(uri string) (int, bool) {
	return slices.BinarySearchFunc(g.ontologies, uri, func(o ontoUse, uri string) int { return strings.Compare(o.uri, uri) })
}

// covers reports whether the graph's ontology set contains every URI the
// capability uses — the paper's graph pre-selection index.
func (g *graph) covers(uris []string) bool {
	for _, u := range uris {
		if _, ok := g.ontology(u); !ok {
			return false
		}
	}
	return true
}

// touch queues v for recompilation at the next publish.
func (g *graph) touch(v *vertex) {
	if !v.touched {
		v.touched = true
		g.touched = append(g.touched, v)
	}
}

// renumber restores pos for the walk order from position at on, after a
// splice there shifted it.
func (g *graph) renumber(at int) {
	for k := at; k < len(g.order); k++ {
		g.pos[g.order[k]] = int32(k)
	}
}

// addSlot gives v the next slot and splices it into the walk order at
// position at. The caller picks at after every predecessor and before
// every successor v is about to get.
func (g *graph) addSlot(v *vertex, at int) {
	v.slot = int32(len(g.slots))
	g.slots = append(g.slots, v)
	g.pos = append(g.pos, 0)
	g.order = slices.Insert(g.order, at, v.slot)
	g.renumber(at)
	g.touch(v)
}

// dropSlot takes v, already detached from its neighbours, out of the walk
// order and the slot table. The last vertex moves into the freed slot, so
// it and the neighbours that name it by slot are touched.
func (g *graph) dropSlot(v *vertex) {
	at := int(g.pos[v.slot])
	g.order = slices.Delete(g.order, at, at+1)
	g.renumber(at)
	last := int32(len(g.slots) - 1)
	if moved := g.slots[last]; moved != v {
		g.slots[v.slot] = moved
		g.pos[v.slot] = g.pos[last]
		g.order[g.pos[last]] = v.slot
		moved.slot = v.slot
		g.touch(moved)
		for _, p := range moved.preds {
			g.touch(p)
		}
		for _, s := range moved.succs {
			g.touch(s)
		}
	}
	g.slots[last] = nil
	g.slots = g.slots[:last]
	g.pos = g.pos[:last]
	v.slot = -1
}

// Directory is a semantic service directory: it caches advertised
// capabilities classified into graphs and answers capability queries.
// Directory is safe for concurrent use: writers serialize on mu and
// publish immutable snapshots through snap, which readers load without
// taking any lock (see snapshot.go for the publish invariant).
type Directory struct {
	// mu serializes writers only; the read path never takes it.
	mu      sync.Mutex
	matcher match.ConceptMatcher
	// enc is the one way the directory matches: capabilities are encoded
	// when they arrive (an advertisement in Register, a request at the top
	// of Query) and every match operation compares two encoded forms. Over
	// code tables that resolves no name; over any other matcher the encoded
	// form is the capability and enc matches it by name through matcher.
	enc    match.EncodedMatcher
	graphs []*graph // guarded by mu
	// byOntology indexes graphs by the ontology URIs they contain, so
	// query-time graph pre-selection does not scan every graph.
	byOntology map[string]*ontoIndex // guarded by mu
	// byService tracks entries for deregistration.
	byService map[string][]placed // guarded by mu
	// dirty lists, in first-touch order, the graphs written since the last
	// publish — created, changed or emptied. The publish recompiles those
	// and derives the next snapshot from the previous one and them alone.
	dirty []*graph // guarded by mu
	// keyRefs counts the stored entries under each ontology-set key;
	// keysStale records that a key appeared or disappeared since the last
	// publish, the only time the published key list is rebuilt.
	keyRefs   map[string]int // guarded by mu
	keysStale bool           // guarded by mu
	// scratch is the classifier's working memory, reused across inserts.
	scratch classifyScratch // guarded by mu
	// classify places a capability in one graph: classifyLocked. Tests put
	// the unbounded reference classifier here to compare the two.
	classify func(*graph, *match.Encoded) (placement, bool)
	// snap is the published immutable view served to readers.
	snap atomic.Pointer[snapshot]
	// matchOps counts capability-level match operations (monotonic).
	matchOps atomic.Uint64
}

// NewDirectory returns an empty directory matching with m.
func NewDirectory(m match.ConceptMatcher) *Directory {
	d := &Directory{
		matcher:    m,
		enc:        match.EncoderFor(m),
		byOntology: make(map[string]*ontoIndex),
		byService:  make(map[string][]placed),
		keyRefs:    make(map[string]int),
	}
	d.classify = d.classifyLocked
	d.snap.Store(&snapshot{byOntology: map[string][]*snapGraph{}})
	return d
}

// ontoIndex is the index entry of one ontology URI: the graphs that use
// it, in the order they came to, under the directory's own copy of the URI.
// Graphs name the ontology by that copy, so neither they nor the index pin
// the document of whichever advertisement brought the URI first.
type ontoIndex struct {
	uri    string
	graphs []*graph
}

// markDirtyLocked queues g for recompilation at the next publish.
func (d *Directory) markDirtyLocked(g *graph) {
	if !g.dirty {
		g.dirty = true
		d.dirty = append(d.dirty, g)
	}
}

// publishLocked patches the compiled form of every graph written since
// the last publish and atomically publishes a snapshot derived from the
// previous one and those graphs alone. Writers call it once per
// Register/Deregister, so a service advertising many capabilities pays
// for one snapshot, not one per capability.
func (d *Directory) publishLocked() {
	changes := make([]graphChange, 0, len(d.dirty))
	for _, g := range d.dirty {
		g.dirty = false
		ch := graphChange{old: g.compiled}
		if len(g.slots) > 0 {
			ch.new = clonePatched(g.compiled, g)
		}
		for _, v := range g.touched {
			v.touched = false
		}
		clear(g.touched)
		g.touched = g.touched[:0]
		g.ontoStale = false
		g.compiled = ch.new
		if ch.old != nil || ch.new != nil { // else created and emptied by the same write
			changes = append(changes, ch)
		}
	}
	clear(d.dirty)
	d.dirty = d.dirty[:0]
	d.scratch.release()
	prev := d.snap.Load()
	keys := prev.ontologyKeys
	if d.keysStale {
		keys = slices.Sorted(maps.Keys(d.keyRefs))
		d.keysStale = false
	}
	d.snap.Store(newSnapshot(prev, changes, d.byOntology, keys))
}

// indexGraphLocked counts one more member entry of g under each of uris,
// and lists g under those it did not use before.
func (d *Directory) indexGraphLocked(g *graph, uris []string) {
	for _, u := range uris {
		i, ok := g.ontology(u)
		if ok {
			g.ontologies[i].count++
			continue
		}
		idx := d.byOntology[u]
		if idx == nil {
			idx = &ontoIndex{uri: strings.Clone(u)}
			d.byOntology[idx.uri] = idx
		}
		idx.graphs = append(idx.graphs, g)
		g.ontologies = slices.Insert(g.ontologies, i, ontoUse{uri: idx.uri, count: 1})
		g.ontoStale = true
	}
}

// unindexGraphLocked counts one member entry of g less under each of
// uris, and unlists g under those its last user just left — so neither
// queries nor inserts over such a URI are offered the graph any longer.
func (d *Directory) unindexGraphLocked(g *graph, uris []string) {
	for _, u := range uris {
		i, _ := g.ontology(u)
		if g.ontologies[i].count--; g.ontologies[i].count > 0 {
			continue
		}
		g.ontologies = slices.Delete(g.ontologies, i, i+1)
		g.ontoStale = true
		idx := d.byOntology[u]
		if len(idx.graphs) == 1 {
			delete(d.byOntology, u)
			continue
		}
		at := slices.Index(idx.graphs, g)
		idx.graphs = slices.Delete(idx.graphs, at, at+1)
	}
}

// candidateGraphsLocked returns the graphs whose ontology set covers uris,
// using the index: it scans only the graphs listed under the rarest URI.
// With no URI constraint every graph qualifies.
func (d *Directory) candidateGraphsLocked(uris []string) []*graph {
	if len(uris) == 0 {
		return d.graphs
	}
	var smallest []*graph
	for i, u := range uris {
		idx := d.byOntology[u]
		if idx == nil {
			return nil
		}
		if i == 0 || len(idx.graphs) < len(smallest) {
			smallest = idx.graphs
		}
	}
	out := make([]*graph, 0, len(smallest))
	for _, g := range smallest {
		if g.covers(uris) {
			out = append(out, g)
		}
	}
	return out
}

// distance is the directory's match operation, SemanticDistance(c1, c2)
// over encoded capabilities; it counts them, the quantity the paper's
// directory optimization minimizes.
func (d *Directory) distance(c1, c2 *match.Encoded) (int, bool) {
	d.matchOps.Add(1)
	return d.enc.EncodedDistance(c1, c2)
}

func (d *Directory) matches(c1, c2 *match.Encoded) bool {
	_, ok := d.distance(c1, c2)
	return ok
}

// MatchOps returns the cumulative number of capability-level semantic
// match operations performed by the directory (insertions and queries).
func (d *Directory) MatchOps() uint64 { return d.matchOps.Load() }

// NumGraphs returns the number of capability graphs.
func (d *Directory) NumGraphs() int {
	return len(d.snap.Load().graphs)
}

// NumCapabilities returns the number of stored advertisements (entries).
func (d *Directory) NumCapabilities() int {
	return d.snap.Load().tally.entries
}

// Services returns the sorted names of registered services.
func (d *Directory) Services() []string {
	return d.snap.Load().services()
}

// Register classifies every provided capability of the service into the
// directory's graphs (the paper's "adding a new service advertisement").
// Re-registering a service name replaces its previous advertisement, so
// periodic re-publication after directory churn stays idempotent.
//
// The directory copies what it keeps, so the caller may go on using s.
func (d *Directory) Register(s *profile.Service) error {
	owned := *s
	owned.Provided = make([]*profile.Capability, len(s.Provided))
	for i, c := range s.Provided {
		owned.Provided[i] = c.Clone()
	}
	return d.Adopt(&owned)
}

// Adopt is Register for a caller that hands s over: the directory keeps
// s's provided capabilities themselves, with every string they hold, and
// the caller must not change them afterwards. A directory fed parsed
// documents stores each advertisement's names this way as the substrings
// of the document profile.UnmarshalString made them, and nothing twice.
func (d *Directory) Adopt(s *profile.Service) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidCapability, err)
	}
	start := time.Now()
	opsBefore := d.matchOps.Load()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.storeLocked(s.Name, s.Provider, s.Provided)
	d.publishLocked()
	match.CountOps(d.matcher, d.matchOps.Load()-opsBefore)
	insertSeconds.ObserveSince(start)
	return nil
}

// storeLocked makes caps, which the directory owns, the advertisement of
// the named service in place of whatever it advertised before. Each
// capability is encoded here, under mu: a writer that re-encodes after a
// code table changed (Reclassify) can then never be overtaken by an
// insert that resolved its names against the table before.
func (d *Directory) storeLocked(service, provider string, caps []*profile.Capability) {
	old := d.byService[service]
	delete(d.byService, service)
	for _, e := range old {
		d.removeEntryLocked(e)
	}
	if len(caps) == 0 {
		return
	}
	entries := make([]placed, len(caps))
	for i, c := range caps {
		entries[i] = d.insertLocked(&Entry{Capability: c, Service: service, Provider: provider, enc: d.enc.Encode(c)})
	}
	d.byService[service] = entries
}

// Reclassify brings the directory up to date with a code table that was
// registered, for the first time or in place of another, for ontology uri:
// every stored capability that refers to uri is encoded against the current
// tables and classified again, and the result is published as one
// snapshot. Whoever registers the table calls it afterwards. Until then
// those capabilities carry references resolved against the table before,
// which match nothing — neither each other's nor a request's, resolved
// against the new one (Section 3.2: stale codes are refreshed, never
// compared) — so the directory answers short on uri, never wrong. The cost
// is that of registering the affected services again; the return value is
// their number.
func (d *Directory) Reclassify(uri string) int {
	opsBefore := d.matchOps.Load()
	d.mu.Lock()
	defer d.mu.Unlock()
	idx := d.byOntology[uri]
	if idx == nil {
		return 0
	}
	var names []string
	for _, g := range idx.graphs {
		for _, v := range g.slots {
			for _, e := range v.entries {
				if slices.Contains(e.Capability.Ontologies(), uri) {
					names = append(names, e.Service)
				}
			}
		}
	}
	if len(names) == 0 {
		return 0
	}
	slices.Sort(names)
	names = slices.Compact(names)
	for _, name := range names {
		old := d.byService[name]
		caps := make([]*profile.Capability, len(old))
		for i, e := range old {
			caps[i] = e.Capability
		}
		d.storeLocked(name, old[0].Provider, caps)
	}
	d.publishLocked()
	match.CountOps(d.matcher, d.matchOps.Load()-opsBefore)
	return len(names)
}

// insert classifies one entry. Candidate graphs are those whose ontology
// index covers the capability's ontologies; the first graph where the
// capability relates to existing vertices receives it, otherwise a new
// graph is created (capabilities unrelated to everything become singleton
// graphs, preserving the "graphs contain related capabilities" invariant).
//
// The capability's ontology set is computed here, once, and handed to
// every step that needs it.
func (d *Directory) insertLocked(e *Entry) placed {
	uris := e.Capability.Ontologies()
	var g *graph
	var v *vertex
	for _, cand := range d.candidateGraphsLocked(uris) {
		if pl, related := d.classify(cand, e.enc); related {
			g, v = cand, d.placeLocked(cand, e, pl)
			break
		}
	}
	if g == nil {
		// No graph accepted the capability: start a new one, in which it
		// has neither parents nor children.
		g = &graph{}
		d.graphs = append(d.graphs, g)
		graphsGauge.Add(1)
		v = d.placeLocked(g, e, placement{})
	}
	d.indexGraphLocked(g, uris)
	d.markDirtyLocked(g)
	key := profile.OntologySetKey(uris)
	if n := d.keyRefs[key]; n > 0 {
		d.keyRefs[key] = n + 1
	} else {
		// The key of a single ontology is that URI as the advertisement
		// spells it; the table keeps its own copy.
		d.keyRefs[strings.Clone(key)] = 1
		d.keysStale = true
	}
	return placed{Entry: e, g: g, v: v}
}

// placement is where classification puts a capability in one graph: in
// the existing vertex join when one is equivalent to it, otherwise in a
// new vertex below parents and above children. depth is the number of
// levels below the roots the search for parents went.
type placement struct {
	join              *vertex
	parents, children []*vertex
	depth             int
}

// classifyScratch is the classifier's reusable working memory: one mark
// byte per slot of the graph being searched, and the vertex lists it
// builds. A placement's parents and children alias the lists, so it is
// good until the next classification.
type classifyScratch struct {
	marks                                    []uint8
	m, s, parents, children, leaves, pending []*vertex
}

// release forgets the vertices the lists name, over their whole capacity,
// once the write that filled them is over: a vertex taken out of its
// graph, with the advertisement behind it, is garbage at once and not
// when a later write happens to overwrite the slot.
func (sc *classifyScratch) release() {
	for _, l := range [...][]*vertex{sc.m, sc.s, sc.parents, sc.children, sc.leaves, sc.pending} {
		clear(l[:cap(l)])
	}
}

// Marks of one classification. inM / inS record Match(V, C) / Match(C, V)
// for the capability C being placed; notM / notS record a failed probe, so
// that no vertex is probed twice for the same region however many
// neighbours lead to it.
const (
	inM uint8 = 1 << iota
	notM
	inS
	notS
	// below marks the vertices the search for S is confined to.
	below
)

// marksLocked returns n zeroed marks.
func (d *Directory) marksLocked(n int) []uint8 {
	if cap(d.scratch.marks) < n {
		d.scratch.marks = make([]uint8, n+n/4)
	}
	marks := d.scratch.marks[:n]
	clear(marks)
	return marks
}

// classifyLocked finds the place of capability c in g, or reports that c
// is unrelated to every vertex of g.
//
// The matching region M = {V : Match(V, C)} is explored top-down from the
// matching roots (M is downward-closed along edges into it); the region
// S = {V : Match(C, V)} is explored bottom-up from matching leaves.
// Parents of C are the minimal frontier of M, children the maximal
// frontier of S — a robust completion of the paper's root/leaf probing
// algorithm. Two facts bound the work. Every vertex is probed at most
// once per region. And once a parent P is known, S lies among P and its
// descendants: Match(P, C) and Match(C, V) give Match(P, V) by
// transitivity, and a graph holds a path between any two of its vertices
// that match (insertion links a new vertex to the frontiers of both its
// regions, removal reconnects around the vertex it takes out). So only
// the leaves below P are probed, not every leaf of the graph, and the
// climb from them never leaves P's descendants.
func (d *Directory) classifyLocked(g *graph, c *match.Encoded) (placement, bool) {
	sc := &d.scratch
	marks := d.marksLocked(len(g.slots))
	var pl placement

	// M: vertices that subsume C (can substitute for C), level by level.
	m := sc.m[:0]
	for _, r := range g.roots {
		if d.matches(r.rep, c) {
			marks[r.slot] |= inM
			m = append(m, r)
		}
	}
	for lo := 0; lo < len(m); {
		hi := len(m)
		for _, v := range m[lo:hi] {
			for _, s := range v.succs {
				switch {
				case marks[s.slot]&(inM|notM) != 0:
				case d.matches(s.rep, c):
					marks[s.slot] |= inM
					m = append(m, s)
				default:
					marks[s.slot] |= notM
				}
			}
		}
		if len(m) > hi {
			pl.depth++
		}
		lo = hi
	}
	sc.m = m
	// Parents: minimal frontier of M (no successor also in M).
	pl.parents = frontier(sc.parents[:0], m, marks, inM, func(v *vertex) []*vertex { return v.succs })
	sc.parents = pl.parents

	// S: vertices that C subsumes, climbing from the leaves that are.
	sset := sc.s[:0]
	probe := func(v *vertex) {
		switch {
		case marks[v.slot]&(inS|notS) != 0:
		case d.matches(c, v.rep):
			marks[v.slot] |= inS
			sset = append(sset, v)
		default:
			marks[v.slot] |= notS
		}
	}
	if len(pl.parents) == 0 {
		for _, l := range g.leaves {
			probe(l)
		}
	} else {
		// Of several parents take the one latest in the walk order, which
		// is likely to have the fewest descendants.
		top := pl.parents[0]
		for _, p := range pl.parents[1:] {
			if g.pos[p.slot] > g.pos[top.slot] {
				top = p
			}
		}
		leaves := d.markBelowLocked(g, top, marks, below, math.MaxInt32)
		if marks[top.slot] |= below; len(top.succs) == 0 {
			leaves = append(leaves, top)
		}
		// A vertex equivalent to C would be C's only parent, and all below
		// it would be in S: asking the parent first settles such a join
		// with one probe instead of one per descendant. The probe is spent
		// only where the bound has already saved one (a leaf elsewhere in
		// the graph), so that a classification never needs more probes
		// than the unbounded search.
		if len(pl.parents) == 1 && len(leaves) < len(g.leaves) {
			if probe(top); marks[top.slot]&inS != 0 {
				pl.join = top
				return pl, true
			}
		}
		for _, l := range leaves {
			probe(l)
		}
	}
	for i := 0; i < len(sset); i++ {
		for _, p := range sset[i].preds {
			if len(pl.parents) == 0 || marks[p.slot]&below != 0 {
				probe(p)
			}
		}
	}
	sc.s = sset

	if len(m) == 0 && len(sset) == 0 {
		return pl, false
	}
	// Mutual match: join the existing equivalence vertex. Transitivity
	// guarantees at most one vertex sits in both regions.
	for _, v := range sset {
		if marks[v.slot]&inM != 0 {
			pl.join = v
			return pl, true
		}
	}
	// Children: maximal frontier of S (no predecessor also in S).
	pl.children = frontier(sc.children[:0], sset, marks, inS, func(v *vertex) []*vertex { return v.preds })
	sc.children = pl.children
	return pl, true
}

// frontier appends to dst the vertices of region that have no neighbour
// marked in on the side next gives.
func frontier(dst, region []*vertex, marks []uint8, in uint8, next func(*vertex) []*vertex) []*vertex {
	for _, v := range region {
		edge := true
		for _, n := range next(v) {
			if marks[n.slot]&in != 0 {
				edge = false
				break
			}
		}
		if edge {
			dst = append(dst, v)
		}
	}
	return dst
}

// markBelowLocked sets bit in the marks of the descendants of from that
// sit at walk-order positions up to limit, and returns the leaves among
// them (good until the next call). Descendants come later in the walk
// order than their ancestors, so nothing past limit leads back before it
// and the search stops there.
func (d *Directory) markBelowLocked(g *graph, from *vertex, marks []uint8, bit uint8, limit int32) []*vertex {
	leaves := d.scratch.leaves[:0]
	pending := append(d.scratch.pending[:0], from)
	for len(pending) > 0 {
		v := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		for _, s := range v.succs {
			if marks[s.slot]&bit != 0 || g.pos[s.slot] > limit {
				continue
			}
			marks[s.slot] |= bit
			if len(s.succs) == 0 {
				leaves = append(leaves, s)
			} else {
				pending = append(pending, s)
			}
		}
	}
	d.scratch.leaves, d.scratch.pending = leaves, pending
	return leaves
}

// placeLocked puts the entry where classification said and returns the
// vertex that holds it. The caller indexes g under the capability's
// ontologies and marks it dirty.
func (d *Directory) placeLocked(g *graph, e *Entry, pl placement) *vertex {
	g.entries++
	entriesGauge.Add(1)
	insertDepth.ObserveInt(int64(pl.depth))
	if v := pl.join; v != nil {
		v.entries = append(v.entries, e)
		g.touch(v)
		return v
	}
	// The new vertex goes into the walk order just ahead of its first
	// child, or at the end when it has none. That is after every parent:
	// a parent matches every child through the new vertex, so the graph
	// already holds a path from it to each and the order has it first.
	nv := newVertex(e)
	at := len(g.order)
	for _, ch := range pl.children {
		at = min(at, int(g.pos[ch.slot]))
	}
	g.addSlot(nv, at)
	// A parent that is a leaf and a child that is a root are about to stop
	// being so.
	leafParents, rootChildren := 0, 0
	for _, ch := range pl.children {
		if len(ch.preds) == 0 {
			rootChildren++
		}
	}
	edgeDelta := 0
	for _, p := range pl.parents {
		if len(p.succs) == 0 {
			leafParents++
		}
		// Drop direct edges p→child that the new vertex now mediates: each
		// such child forgets p, then p forgets them all in one pass over its
		// successors, so that a parent of many pays for its degree once and
		// not once per child.
		mediated := 0
		for _, ch := range pl.children {
			if slices.Contains(ch.preds, p) {
				ch.preds = drop(ch.preds, p)
				mediated++
			}
		}
		if mediated > 0 {
			p.succs = slices.DeleteFunc(p.succs, func(s *vertex) bool { return !slices.Contains(s.preds, p) })
			edgeDelta -= mediated
		}
		p.succs = append(p.succs, nv)
		nv.preds = append(nv.preds, p)
		edgeDelta++
		g.touch(p)
	}
	for _, ch := range pl.children {
		nv.succs = append(nv.succs, ch)
		ch.preds = append(ch.preds, nv)
		edgeDelta++
		g.touch(ch)
	}
	// Those leave the leaf and root sets in one pass over each, like the
	// one over a parent's successors.
	if leafParents > 0 {
		g.leaves = slices.DeleteFunc(g.leaves, func(l *vertex) bool { return len(l.succs) > 0 })
	}
	if rootChildren > 0 {
		g.roots = slices.DeleteFunc(g.roots, func(r *vertex) bool { return len(r.preds) > 0 })
	}
	if len(pl.parents) == 0 {
		g.roots = append(g.roots, nv)
	}
	if len(pl.children) == 0 {
		g.leaves = append(g.leaves, nv)
	}
	g.edges += edgeDelta
	verticesGauge.Add(1)
	edgesGauge.Add(int64(edgeDelta))
	return nv
}

// Deregister removes every capability advertised by the named service.
// It reports whether the service was present.
func (d *Directory) Deregister(service string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, ok := d.byService[service]
	if !ok {
		return false
	}
	delete(d.byService, service)
	for _, e := range entries {
		d.removeEntryLocked(e)
	}
	d.publishLocked()
	return true
}

// removeEntryLocked drops one entry; a vertex left without entries is
// removed and its predecessors reconnected to its successors.
func (d *Directory) removeEntryLocked(e placed) {
	uris := e.Capability.Ontologies()
	key := profile.OntologySetKey(uris)
	if d.keyRefs[key]--; d.keyRefs[key] == 0 {
		delete(d.keyRefs, key)
		d.keysStale = true
	}
	g, v := e.g, e.v
	i := slices.Index(v.entries, e.Entry)
	v.entries = slices.Delete(v.entries, i, i+1)
	g.entries--
	g.touch(v)
	d.unindexGraphLocked(g, uris)
	d.markDirtyLocked(g)
	entriesGauge.Add(-1)
	if len(v.entries) > 0 {
		return
	}
	// Vertex emptied: splice it out. Its own adjacency goes with it, whole;
	// only its neighbours search their lists for it.
	preds, succs := v.preds, v.succs
	v.preds, v.succs = nil, nil
	if len(preds) == 0 {
		g.roots = drop(g.roots, v)
	}
	if len(succs) == 0 {
		g.leaves = drop(g.leaves, v)
	}
	edgeDelta := -len(preds) - len(succs)
	limit := int32(-1) // the latest walk-order position among v's successors
	for _, s := range succs {
		s.preds = drop(s.preds, v)
		limit = max(limit, g.pos[s.slot])
		g.touch(s)
	}
	for _, p := range preds {
		p.succs = drop(p.succs, v)
	}
	for _, p := range preds {
		g.touch(p)
		// Reconnect p to the successors it no longer reaches. An edge to one
		// it still reaches through another of its successors would be
		// redundant: the graph stays a transitive reduction.
		reached := d.marksLocked(len(g.slots))
		d.markBelowLocked(g, p, reached, below, limit)
		for _, s := range succs {
			if reached[s.slot] == 0 {
				p.succs = append(p.succs, s)
				s.preds = append(s.preds, p)
				edgeDelta++
			}
		}
		if len(p.succs) == 0 {
			g.leaves = append(g.leaves, p)
		}
	}
	for _, s := range succs {
		if len(s.preds) == 0 {
			g.roots = append(g.roots, s)
		}
	}
	g.dropSlot(v)
	g.edges += edgeDelta
	verticesGauge.Add(-1)
	edgesGauge.Add(int64(edgeDelta))
	if len(g.slots) == 0 {
		gi := slices.Index(d.graphs, g)
		d.graphs = slices.Delete(d.graphs, gi, gi+1)
		graphsGauge.Add(-1)
	}
}

// Query returns every advertisement matching the required capability,
// sorted by ascending semantic distance (ties broken by service then
// capability name for determinism). It implements the paper's "answering
// user requests": graphs are pre-selected by ontology index, only matching
// roots are expanded, and only matching vertices are traversed.
//
// The read path is lock-free: it loads the current immutable snapshot
// and walks compiled graphs with pooled scratch, so queries never block
// writers and scale with reader parallelism.
func (d *Directory) Query(req *profile.Capability) []Result {
	start := time.Now()
	opsBefore := d.matchOps.Load()
	rootProbes := 0
	snap := d.snap.Load()
	// The request's names are resolved here, once; the walk and the ranking
	// below compare the result with what Register stored.
	enc := d.enc.Encode(req)
	// Filter graphs by the ontologies a matching provider must use (the
	// request's outputs and properties); the request's offered inputs may
	// go unused by a provider, so their ontologies must not prune.
	uris := req.RequiredOntologies()
	var results []Result
	for _, g := range snap.candidateGraphs(uris) {
		sp := scratchFor(len(g.vertices))
		matched := *sp
		rootProbes += d.walkGraph(g, enc, matched)
		for i := range g.vertices {
			if !matched[i] {
				continue
			}
			for _, e := range g.vertices[i].entries {
				dist, ok := d.distance(e.enc, enc)
				if !ok {
					continue
				}
				// QoS constraints filter individual advertisements after
				// functional matching; they stay out of the graph order
				// because range constraints are not transitive.
				if !profile.QoSSatisfies(e.Capability, req) {
					continue
				}
				results = append(results, Result{Entry: e, Distance: dist})
			}
		}
		matchScratch.Put(sp)
	}
	slices.SortFunc(results, func(a, b Result) int {
		return cmp.Or(
			cmp.Compare(a.Distance, b.Distance),
			strings.Compare(a.Entry.Service, b.Entry.Service),
			strings.Compare(a.Entry.Capability.Name, b.Entry.Capability.Name),
		)
	})
	rootProbesTotal.Add(uint64(rootProbes))
	match.CountOps(d.matcher, d.matchOps.Load()-opsBefore)
	querySeconds.ObserveSince(start)
	return results
}

// walkGraph marks the vertices of g matching req in the caller-supplied
// scratch bitmap (indexed by slot) and returns the number of root probes.
// Because the compiled walk order is topological, one pass along it
// visits parents before children: a non-root vertex is probed exactly
// when some predecessor matched, which performs the same match
// operations as the paper's frontier expansion without allocating
// traversal state.
//
//sdp:hotpath
func (d *Directory) walkGraph(g *snapGraph, req *match.Encoded, matched []bool) int {
	rootProbes := 0
	for i := g.first; i >= 0; i = g.vertices[i].next {
		v := &g.vertices[i]
		probe := v.root
		if probe {
			rootProbes++
		} else {
			for _, p := range v.preds {
				if matched[p] {
					probe = true
					break
				}
			}
		}
		matched[i] = probe && d.matches(v.rep, req)
	}
	return rootProbes
}

// Best returns the advertisement with minimal semantic distance from the
// request, if any matches.
func (d *Directory) Best(req *profile.Capability) (Result, bool) {
	results := d.Query(req)
	if len(results) == 0 {
		return Result{}, false
	}
	return results[0], true
}

// Ontologies returns the sorted union of ontology URIs across all graphs;
// Bloom summaries (Section 4) hash over capability ontology sets, which
// this exposes for tests and diagnostics.
func (d *Directory) Ontologies() []string {
	return d.snap.Load().ontologyURIs()
}

// OntologyKeys returns the distinct capability ontology-set keys stored in
// the directory, the unit hashed into Bloom filters by Section 4. The
// writer keeps the list with the snapshot (rebuilding it only when a key
// appears or disappears), so summary rebuilds on the read side are a
// lock-free copy.
func (d *Directory) OntologyKeys() []string {
	return append([]string(nil), d.snap.Load().ontologyKeys...)
}

// Snapshot returns a human-readable dump of the graph structure, mainly
// for debugging and the examples. It renders the current published
// snapshot, so it is safe to call concurrently with writers.
func (d *Directory) Snapshot() string {
	return d.snap.Load().dump()
}

// Stats summarizes the directory's graph structure for diagnostics and
// capacity monitoring.
type Stats struct {
	Graphs   int
	Vertices int
	Edges    int
	Entries  int
	// MaxGraphVertices is the size of the largest graph.
	MaxGraphVertices int
	// Roots and Leaves count across all graphs.
	Roots  int
	Leaves int
}

// Stats returns the structural counters of the current published
// snapshot, lock-free. The additive counters are kept with the snapshot;
// Graphs and MaxGraphVertices are read off its graph list.
func (d *Directory) Stats() Stats {
	return d.snap.Load().stats()
}
