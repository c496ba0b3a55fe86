// Package registry implements the directory-side classification of service
// advertisements from Section 3.3 of the paper: capabilities of networked
// services are organized into directed acyclic graphs, indexed by the set of
// ontologies they use, so that a request is matched against a handful of
// graph roots instead of every advertisement in the directory.
//
// There is one graph per ontology set (profile.OntologySetKey, the unit the
// Section 4 Bloom summaries hash): a capability is classified among the
// capabilities that use exactly the ontologies it uses.
//
// Graph structure (paper, Section 3.3):
//
//   - two capabilities that match in both directions with semantic
//     distance 0 share a single vertex;
//   - otherwise, when Match(C1, C2) holds, C1 and C2 are distinct vertices
//     with a directed edge from the more generic C1 to C2;
//   - Roots(G) are vertices without predecessors (the most generic
//     capabilities), Leaves(G) those without successors;
//   - a capability related to no other of its ontology set is a vertex with
//     neither: a graph is a forest, the transitive reduction of Match over
//     what is stored under its key, whatever order it arrived in. (The paper
//     starts a new graph for such a capability; a query probes it as a root
//     either way.)
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
	enc match.Encoded
}

// placed is a stored entry and where the writer put it — the graph and the
// slot of the node that lists it — so that withdrawing it searches nothing.
// The place stays off the Entry, which snapshots and query results share.
type placed struct {
	*Entry
	g    *graph
	slot int32
}

// advert is what the directory keeps under a service name: the document it
// arrived as (empty when it arrived parsed) and its classified capabilities.
type advert struct {
	doc     string
	entries []placed
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

// graph is the writer's side of the capability DAG of one ontology set. The
// DAG itself — nodes, walk order, ontology set, counters — exists once, as
// the version the snapshot holds; the writer classifies over those same
// nodes and keeps here only what readers have no use for.
type graph struct {
	// cur is the published version, nil for a graph the write in progress
	// made. draft is the version that write is building, nil between writes
	// (so a graph is queued in Directory.dirty exactly while it has one).
	cur   *snapGraph
	draft *draft
	// roots holds the slots of the nodes without predecessors, unordered:
	// where classification starts.
	roots []int32
}

// draft is the next version of a graph while a write builds it: copies of
// the published version's two tables, made on the write's first touch of
// the graph, in which the write replaces the nodes it changes — a published
// node is never edited — and moves slots and walk positions as nodes come
// and go. The key and the ontology list are the graph's for life. Publishing
// wraps the tables as they are (newSnapGraph).
type draft struct {
	tables
	// pos is the inverse of the walk order: order[pos[s]] == s.
	pos []int32
}

func newDraft(cur *snapGraph) *draft {
	n := len(cur.nodes)
	dr := &draft{tables: cur.tables, pos: make([]int32, n, n+1)}
	dr.nodes = append(make([]*node, 0, n+1), cur.nodes...)
	dr.order = append(make([]int32, 0, n+1), cur.order...)
	for k, s := range dr.order {
		dr.pos[s] = int32(k)
	}
	return dr
}

// view returns the graph's content as the writer sees it: the draft's
// during a write that touched the graph, otherwise the published version's.
func (g *graph) view() *tables {
	if g.draft != nil {
		return &g.draft.tables
	}
	return &g.cur.tables
}

// setEntries, setPreds and setSuccs replace the node at slot by one that
// differs in its entry list, which it keeps as it is, or in its
// predecessors or successors, which it copies.
func (dr *draft) setEntries(slot int32, entries []*Entry) {
	n := dr.nodes[slot]
	dr.nodes[slot] = newNode(n.rep, entries, n.preds, n.succs)
}

func (dr *draft) setPreds(slot int32, preds []int32) {
	n := dr.nodes[slot]
	dr.nodes[slot] = newNode(n.rep, n.entries, preds, n.succs)
}

func (dr *draft) setSuccs(slot int32, succs []int32) {
	n := dr.nodes[slot]
	dr.nodes[slot] = newNode(n.rep, n.entries, n.preds, succs)
}

// renumber restores pos for the walk order from position at on, after a
// splice there shifted it.
func (dr *draft) renumber(at int) {
	for k := at; k < len(dr.order); k++ {
		dr.pos[dr.order[k]] = int32(k)
	}
}

// addSlot gives n the next slot and splices it into the walk order at
// position at. The caller picks at after every predecessor and before
// every successor of n.
func (dr *draft) addSlot(n *node, at int) int32 {
	slot := int32(len(dr.nodes))
	dr.nodes = append(dr.nodes, n)
	dr.pos = append(dr.pos, 0)
	dr.order = slices.Insert(dr.order, at, slot)
	dr.renumber(at)
	return slot
}

// drop removes slot x, which the set holds, from an unordered slot set:
// the last element takes its place.
func drop(set []int32, x int32) []int32 {
	i, last := slices.Index(set, x), len(set)-1
	set[i] = set[last]
	return set[:last]
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
	enc match.EncodedMatcher
	// graphs holds the graph of every ontology-set key some stored
	// capability has, and during a write also those the write emptied.
	graphs map[string]*graph // guarded by mu
	// byService is the one table keyed by service name: each stored
	// advertisement's document and where its capabilities were placed.
	byService map[string]advert // guarded by mu
	// dirty lists, in first-touch order, the graphs written since the last
	// publish — created, changed or emptied: those with a draft. The publish
	// derives the next snapshot from the previous one and them alone.
	dirty []*graph // guarded by mu
	// scratch is the writer's working memory, reused across writes.
	scratch classifyScratch // guarded by mu
	// classify finds a capability's place in the graph of its key:
	// classifyLocked. Tests put the unbounded reference classifier here to
	// compare the two.
	classify func(*graph, *match.Encoded) placement
	// snap is the published immutable view served to readers.
	snap atomic.Pointer[snapshot]
	// matchOps counts capability-level match operations (monotonic).
	matchOps atomic.Uint64
}

// NewDirectory returns an empty directory matching with m.
func NewDirectory(m match.ConceptMatcher) *Directory {
	d := &Directory{
		matcher:   m,
		enc:       match.EncoderFor(m),
		graphs:    make(map[string]*graph),
		byService: make(map[string]advert),
	}
	d.classify = d.classifyLocked
	d.snap.Store(&snapshot{})
	return d
}

// graphLocked returns the graph of the ontology set uris, which is sorted,
// starting an empty one, open for the write in progress, when no stored
// capability uses exactly that set. The new graph names its ontologies by
// the directory's own copies, so that it does not pin the document of the
// advertisement that brought the set first.
func (d *Directory) graphLocked(uris []string) *graph {
	if g := d.graphs[profile.OntologySetKey(uris)]; g != nil {
		return g
	}
	own := make([]string, len(uris))
	for i, u := range uris {
		own[i] = strings.Clone(u)
	}
	g := &graph{draft: &draft{tables: tables{key: profile.OntologySetKey(own), ontologies: own}}}
	d.graphs[g.draft.key] = g
	d.dirty = append(d.dirty, g)
	graphsGauge.Add(1)
	return g
}

// openLocked returns the draft of g's next version, starting it on the
// write's first touch of g.
func (d *Directory) openLocked(g *graph) *draft {
	if g.draft == nil {
		g.draft = newDraft(g.cur)
		d.dirty = append(d.dirty, g)
	}
	return g.draft
}

// publishLocked makes the draft of every graph written since the last
// publish its published version — a graph the write left empty goes, and its
// key with it — and atomically publishes a snapshot derived from the previous
// one and those graphs alone. Writers call it once per Register/Deregister,
// so a service advertising many capabilities pays for one snapshot, not one
// per capability.
func (d *Directory) publishLocked() {
	changes := make([]graphChange, 0, len(d.dirty))
	for _, g := range d.dirty {
		ch := graphChange{old: g.cur}
		if len(g.draft.nodes) > 0 {
			ch.new = newSnapGraph(g.draft, len(g.roots))
		} else {
			delete(d.graphs, g.draft.key)
			graphsGauge.Add(-1)
		}
		g.cur, g.draft = ch.new, nil
		if ch.old != nil || ch.new != nil { // else created and emptied by the same write
			changes = append(changes, ch)
		}
	}
	clear(d.dirty)
	d.dirty = d.dirty[:0]
	d.snap.Store(newSnapshot(d.snap.Load(), changes))
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
	return int(d.snap.Load().tally.entries)
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
	return d.Adopt(&owned, "")
}

// Adopt is Register for a caller that hands s over, with the document it
// was parsed from: the directory keeps s's provided capabilities
// themselves, with every string they hold, and the caller must not change
// them afterwards. A directory fed parsed documents stores each
// advertisement's names this way as the substrings of doc that
// profile.UnmarshalString made them, and doc beside them in the one table
// keyed by service name: what queries can return, Has and Documents report.
func (d *Directory) Adopt(s *profile.Service, doc string) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidCapability, err)
	}
	start := time.Now()
	opsBefore := d.matchOps.Load()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.storeLocked(s.Name, s.Provider, doc, s.Provided)
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
func (d *Directory) storeLocked(service, provider, doc string, caps []*profile.Capability) {
	// The old record goes first, key and all: assigning over it would keep
	// its key, a substring of the document being replaced.
	d.withdrawLocked(service)
	entries := make([]placed, len(caps))
	for i, c := range caps {
		entries[i] = d.insertLocked(&Entry{Capability: c, Service: service, Provider: provider, enc: *d.enc.Encode(c)})
	}
	d.byService[service] = advert{doc: doc, entries: entries}
}

// withdrawLocked takes the named service's advertisement out of the graphs
// and the service table, and reports whether there was one.
func (d *Directory) withdrawLocked(service string) bool {
	ad, ok := d.byService[service]
	if !ok {
		return false
	}
	// By index, with the record still in the table: a removal that moves a
	// node to another slot corrects the places of the entries yet to go.
	for i := range ad.entries {
		d.removeEntryLocked(ad.entries[i])
	}
	delete(d.byService, service)
	return true
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
	// Between writes the snapshot is the directory; every member of a graph
	// listed under uri uses it.
	var names []string
	for _, g := range d.snap.Load().candidateGraphs([]string{uri}) {
		for _, n := range g.nodes {
			for _, e := range n.entries {
				names = append(names, e.Service)
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
		caps := make([]*profile.Capability, len(old.entries))
		for i, e := range old.entries {
			caps[i] = e.Capability
		}
		d.storeLocked(name, old.entries[0].Provider, old.doc, caps)
	}
	d.publishLocked()
	match.CountOps(d.matcher, d.matchOps.Load()-opsBefore)
	return len(names)
}

// Has reports whether an advertisement is stored under the service name.
func (d *Directory) Has(service string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.byService[service]
	return ok
}

// Documents returns the documents the stored advertisements were adopted
// with, by service name: the stored strings, not copies, listed under the
// writer lock, in which no advertisement is half stored or half withdrawn.
func (d *Directory) Documents() map[string]string {
	d.mu.Lock()
	defer d.mu.Unlock()
	docs := make(map[string]string, len(d.byService))
	for name, ad := range d.byService {
		docs[name] = ad.doc
	}
	return docs
}

// insertLocked classifies one entry in the graph of its ontology set: beside
// an equivalent capability, below the most specific ones that can stand in
// for it and above the most generic ones it can stand in for — or, related to
// none, as a node with neither parents nor children, one more root of the
// forest.
func (d *Directory) insertLocked(e *Entry) placed {
	g := d.graphLocked(e.Capability.Ontologies())
	return placed{Entry: e, g: g, slot: d.placeLocked(g, e, d.classify(g, &e.enc))}
}

// placement is where classification puts a capability in its graph, in
// slots: in the existing node join when one is equivalent to it (-1 when
// none is), otherwise in a new node below parents and above children, of
// which a capability related to nothing has none. depth is the number of
// levels below the roots the search for parents went.
type placement struct {
	join              int32
	parents, children []int32
	depth             int
}

// classifyScratch is the writer's reusable working memory: one mark byte
// per slot of the graph being searched, and the slot lists it builds. A
// placement's parents and children alias the lists, so it is good until
// the next classification.
type classifyScratch struct {
	marks                                         []uint8
	m, s, parents, children, leaves, pending, adj []int32
	// added holds the edges a removal reconnects, child slot in the high
	// half and parent slot in the low one, so that sorting groups them by
	// child.
	added []uint64
}

// without copies list into the adjacency scratch less the slots skip
// accepts; the caller appends what the list gains and stores the result
// back, so the scratch keeps what it grew to.
func (sc *classifyScratch) without(list []int32, skip func(int32) bool) []int32 {
	adj := sc.adj[:0]
	for _, x := range list {
		if !skip(x) {
			adj = append(adj, x)
		}
	}
	return adj
}

// Marks of one classification. inM / inS record Match(V, C) / Match(C, V)
// for the capability C being placed; notM / notS record a failed probe, so
// that no node is probed twice for the same region however many
// neighbours lead to it.
const (
	inM uint8 = 1 << iota
	notM
	inS
	notS
	// below marks the nodes the search for S is confined to.
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

// classifyLocked finds the place of capability c in g.
//
// The matching region M = {V : Match(V, C)} is explored top-down from the
// matching roots (M is downward-closed along edges into it); the region
// S = {V : Match(C, V)} is explored bottom-up from matching leaves.
// Parents of C are the minimal frontier of M, children the maximal
// frontier of S — a robust completion of the paper's root/leaf probing
// algorithm. Two facts bound the work. Every node is probed at most
// once per region. And once a parent P is known, S lies among P and its
// descendants: Match(P, C) and Match(C, V) give Match(P, V) by
// transitivity, and a graph holds a path between any two of its nodes
// that match (insertion links a new node to the frontiers of both its
// regions, removal reconnects around the node it takes out). So only
// the leaves below P are probed, not every leaf of the graph, and the
// climb from them never leaves P's descendants.
func (d *Directory) classifyLocked(g *graph, c *match.Encoded) placement {
	sc := &d.scratch
	nodes := g.view().nodes
	marks := d.marksLocked(len(nodes))
	pl := placement{join: -1}

	// M: nodes that subsume C (can substitute for C), level by level.
	m := sc.m[:0]
	for _, r := range g.roots {
		if d.matches(nodes[r].rep, c) {
			marks[r] |= inM
			m = append(m, r)
		}
	}
	for lo := 0; lo < len(m); {
		hi := len(m)
		for _, v := range m[lo:hi] {
			for _, s := range nodes[v].succs {
				switch {
				case marks[s]&(inM|notM) != 0:
				case d.matches(nodes[s].rep, c):
					marks[s] |= inM
					m = append(m, s)
				default:
					marks[s] |= notM
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
	pl.parents = frontier(sc.parents[:0], m, marks, inM, func(v int32) []int32 { return nodes[v].succs })
	sc.parents = pl.parents

	// S: nodes that C subsumes, climbing from the leaves that are.
	sset := sc.s[:0]
	probe := func(v int32) {
		switch {
		case marks[v]&(inS|notS) != 0:
		case d.matches(c, nodes[v].rep):
			marks[v] |= inS
			sset = append(sset, v)
		default:
			marks[v] |= notS
		}
	}
	if len(pl.parents) == 0 {
		for v, n := range nodes {
			if len(n.succs) == 0 {
				probe(int32(v))
			}
		}
	} else {
		// The write is about to open g anyway, to place c; the walk positions
		// are the draft's. Of several parents take the one latest in the walk
		// order, which is likely to have the fewest descendants.
		dr := d.openLocked(g)
		top := pl.parents[0]
		for _, p := range pl.parents[1:] {
			if dr.pos[p] > dr.pos[top] {
				top = p
			}
		}
		leaves := d.markBelowLocked(dr, top, marks, below, math.MaxInt32)
		if marks[top] |= below; len(nodes[top].succs) == 0 {
			leaves = append(leaves, top)
		}
		// A node equivalent to C would be C's only parent, and all below
		// it would be in S: asking the parent first settles such a join
		// with one probe instead of one per descendant. The probe is spent
		// only where the bound has already saved one (a leaf elsewhere in
		// the graph), so that a classification never needs more probes
		// than the unbounded search.
		if len(pl.parents) == 1 && len(leaves) < int(dr.tally.leaves) {
			if probe(top); marks[top]&inS != 0 {
				pl.join = top
				return pl
			}
		}
		for _, l := range leaves {
			probe(l)
		}
	}
	for i := 0; i < len(sset); i++ {
		for _, p := range nodes[sset[i]].preds {
			if len(pl.parents) == 0 || marks[p]&below != 0 {
				probe(p)
			}
		}
	}
	sc.s = sset

	// Mutual match: join the existing equivalence node. Transitivity
	// guarantees at most one node sits in both regions.
	for _, v := range sset {
		if marks[v]&inM != 0 {
			pl.join = v
			return pl
		}
	}
	// Children: maximal frontier of S (no predecessor also in S).
	pl.children = frontier(sc.children[:0], sset, marks, inS, func(v int32) []int32 { return nodes[v].preds })
	sc.children = pl.children
	return pl
}

// frontier appends to dst the slots of region that have no neighbour
// marked in on the side next gives.
func frontier(dst, region []int32, marks []uint8, in uint8, next func(int32) []int32) []int32 {
	for _, v := range region {
		edge := true
		for _, n := range next(v) {
			if marks[n]&in != 0 {
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
// and the search stops there. A slot whose mark already has bit is taken
// for visited.
func (d *Directory) markBelowLocked(dr *draft, from int32, marks []uint8, bit uint8, limit int32) []int32 {
	leaves := d.scratch.leaves[:0]
	pending := append(d.scratch.pending[:0], from)
	for len(pending) > 0 {
		v := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		for _, s := range dr.nodes[v].succs {
			if marks[s]&bit != 0 || dr.pos[s] > limit {
				continue
			}
			marks[s] |= bit
			if len(dr.nodes[s].succs) == 0 {
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
// slot of the node that holds it.
func (d *Directory) placeLocked(g *graph, e *Entry, pl placement) int32 {
	dr := d.openLocked(g)
	dr.tally.entries++
	entriesGauge.Add(1)
	insertDepth.ObserveInt(int64(pl.depth))
	if pl.join >= 0 {
		dr.setEntries(pl.join, append(slices.Clip(dr.nodes[pl.join].entries), e))
		return pl.join
	}
	// The new node goes into the walk order just ahead of its first
	// child, or at the end when it has none. That is after every parent:
	// a parent matches every child through the new node, so the graph
	// already holds a path from it to each and the order has it first.
	at := len(dr.order)
	for _, ch := range pl.children {
		at = min(at, int(dr.pos[ch]))
	}
	slot := dr.addSlot(newNode(&e.enc, []*Entry{e}, pl.parents, pl.children), at)
	// A direct edge from a parent to a child is one the new node now
	// mediates: the parent forgets every child among its successors and the
	// child every parent among its predecessors, each in one pass over its
	// own list, so that a parent of many pays for its degree once and not
	// once per child. The marks that tell parents (inM) and children (inS)
	// apart are set here: the classification may have been the reference's.
	marks := d.marksLocked(len(dr.nodes))
	for _, p := range pl.parents {
		marks[p] = inM
	}
	for _, ch := range pl.children {
		marks[ch] = inS
	}
	edgeDelta := len(pl.parents) + len(pl.children)
	for _, p := range pl.parents {
		succs := dr.nodes[p].succs
		if len(succs) == 0 {
			dr.tally.leaves-- // p stops being a leaf
		}
		adj := d.scratch.without(succs, func(s int32) bool { return marks[s]&inS != 0 })
		edgeDelta -= len(succs) - len(adj)
		d.scratch.adj = append(adj, slot)
		dr.setSuccs(p, d.scratch.adj)
	}
	rootChildren := false
	for _, ch := range pl.children {
		preds := dr.nodes[ch].preds
		rootChildren = rootChildren || len(preds) == 0
		adj := d.scratch.without(preds, func(p int32) bool { return marks[p]&inM != 0 })
		d.scratch.adj = append(adj, slot)
		dr.setPreds(ch, d.scratch.adj)
	}
	if rootChildren {
		g.roots = slices.DeleteFunc(g.roots, func(r int32) bool { return marks[r]&inS != 0 })
	}
	if len(pl.parents) == 0 {
		g.roots = append(g.roots, slot)
	}
	if len(pl.children) == 0 {
		dr.tally.leaves++
	}
	dr.tally.edges += int32(edgeDelta)
	verticesGauge.Add(1)
	edgesGauge.Add(int64(edgeDelta))
	return slot
}

// Deregister removes every capability advertised by the named service.
// It reports whether the service was present.
func (d *Directory) Deregister(service string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.withdrawLocked(service) {
		return false
	}
	d.publishLocked()
	return true
}

// removeEntryLocked drops one entry; a node left without entries is
// removed and its predecessors reconnected to its successors. A graph left
// without nodes stays the graph of its key until the write is published.
func (d *Directory) removeEntryLocked(e placed) {
	g, v := e.g, e.slot
	dr := d.openLocked(g)
	n := dr.nodes[v]
	dr.tally.entries--
	entriesGauge.Add(-1)
	if len(n.entries) > 1 {
		i := slices.Index(n.entries, e.Entry)
		dr.setEntries(v, slices.Delete(slices.Clone(n.entries), i, i+1))
		return
	}
	// Node emptied: splice it out. Every predecessor forgets it and is
	// reconnected to the successors it no longer reaches; an edge to one it
	// still reaches through another of its successors would be redundant,
	// and the graph stays a transitive reduction. Every successor forgets it
	// and learns of those predecessors. Each neighbour is replaced once.
	sc := &d.scratch
	if len(n.preds) == 0 {
		g.roots = drop(g.roots, v)
	}
	if len(n.succs) == 0 {
		dr.tally.leaves--
	}
	edgeDelta := -len(n.preds) - len(n.succs)
	limit := int32(-1) // the latest walk-order position among v's successors
	for _, s := range n.succs {
		limit = max(limit, dr.pos[s])
	}
	added := sc.added[:0]
	for _, p := range n.preds {
		reached := d.marksLocked(len(dr.nodes))
		reached[v] = below // not through v
		d.markBelowLocked(dr, p, reached, below, limit)
		adj := sc.without(dr.nodes[p].succs, func(s int32) bool { return s == v })
		for _, s := range n.succs {
			if reached[s] == 0 {
				adj = append(adj, s)
				added = append(added, uint64(s)<<32|uint64(p))
			}
		}
		if sc.adj = adj; len(adj) == 0 {
			dr.tally.leaves++
		}
		dr.setSuccs(p, adj)
	}
	slices.Sort(added)
	sc.added = added
	edgeDelta += len(added)
	for _, s := range n.succs {
		adj := sc.without(dr.nodes[s].preds, func(p int32) bool { return p == v })
		at, _ := slices.BinarySearch(added, uint64(s)<<32)
		for ; at < len(added) && int32(added[at]>>32) == s; at++ {
			adj = append(adj, int32(uint32(added[at])))
		}
		if sc.adj = adj; len(adj) == 0 {
			g.roots = append(g.roots, s)
		}
		dr.setPreds(s, adj)
	}
	d.dropSlotLocked(g, v)
	dr.tally.edges += int32(edgeDelta)
	verticesGauge.Add(-1)
	edgesGauge.Add(int64(edgeDelta))
}

// dropSlotLocked takes the node at slot v, already detached from its
// neighbours, out of the walk order and the slot table of g's draft. The
// last node moves into the freed slot, so whatever names it by slot is
// corrected: its neighbours, the root list, the places of its entries.
func (d *Directory) dropSlotLocked(g *graph, v int32) {
	dr := g.draft
	at := int(dr.pos[v])
	dr.order = slices.Delete(dr.order, at, at+1)
	dr.renumber(at)
	last := int32(len(dr.nodes) - 1)
	if v != last {
		moved := dr.nodes[last]
		dr.nodes[v] = moved
		dr.pos[v] = dr.pos[last]
		dr.order[dr.pos[last]] = v
		renamed := func(list []int32) []int32 {
			d.scratch.adj = append(d.scratch.adj[:0], list...)
			d.scratch.adj[slices.Index(list, last)] = v
			return d.scratch.adj
		}
		for _, p := range moved.preds {
			dr.setSuccs(p, renamed(dr.nodes[p].succs))
		}
		for _, s := range moved.succs {
			dr.setPreds(s, renamed(dr.nodes[s].preds))
		}
		if len(moved.preds) == 0 {
			g.roots[slices.Index(g.roots, last)] = v
		}
		for _, e := range moved.entries {
			entries := d.byService[e.Service].entries
			for i := range entries {
				if entries[i].Entry == e {
					entries[i].slot = v
				}
			}
		}
	}
	dr.nodes[last] = nil
	dr.nodes = dr.nodes[:last]
	dr.pos = dr.pos[:last]
}

// Query returns every advertisement matching the required capability,
// sorted by ascending semantic distance (ties broken by service then
// capability name for determinism). It implements the paper's "answering
// user requests": graphs are pre-selected by ontology index, only matching
// roots are expanded, and only matching vertices are traversed.
//
// The read path is lock-free: it loads the current immutable snapshot
// and walks its graphs with pooled scratch, so queries never block
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
		sp := scratchFor(len(g.nodes))
		matched := *sp
		rootProbes += d.walkGraph(g, enc, matched)
		for i, n := range g.nodes {
			if !matched[i] {
				continue
			}
			for _, e := range n.entries {
				dist, ok := d.distance(&e.enc, enc)
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
// Because the walk order is topological, one pass along it visits parents
// before children: a non-root node is probed exactly when some
// predecessor matched, which performs the same match operations as the
// paper's frontier expansion without allocating traversal state.
//
//sdp:hotpath
func (d *Directory) walkGraph(g *snapGraph, req *match.Encoded, matched []bool) int {
	rootProbes := 0
	for _, i := range g.order {
		n := g.nodes[i]
		probe := len(n.preds) == 0
		if probe {
			rootProbes++
		} else {
			for _, p := range n.preds {
				if matched[p] {
					probe = true
					break
				}
			}
		}
		matched[i] = probe && d.matches(n.rep, req)
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
// the directory, sorted: the unit hashed into Bloom filters by Section 4.
// They are the keys of the snapshot's graphs, so summary rebuilds on the
// read side take no lock.
func (d *Directory) OntologyKeys() []string {
	graphs := d.snap.Load().graphs
	keys := make([]string, len(graphs))
	for i, g := range graphs {
		keys[i] = g.key
	}
	return keys
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
	// Graphs is the number of capability graphs: one per ontology-set key.
	Graphs   int
	Vertices int
	Edges    int
	Entries  int
	// MaxGraphVertices is the size of the largest graph: the most vertices
	// any one ontology set holds, related or not.
	MaxGraphVertices int
	// Roots and Leaves count across all graphs; a capability related to
	// nothing is one of each.
	Roots  int
	Leaves int
}

// Stats returns the structural counters of the current published
// snapshot, lock-free. The additive counters are kept with the snapshot;
// Graphs and MaxGraphVertices are read off its graph list.
func (d *Directory) Stats() Stats {
	return d.snap.Load().stats()
}
