// Package codes implements the numeric interval encoding of classified
// ontologies described in Section 3.2 of the paper (after Constantinescu &
// Faltings, "Efficient matchmaking and directory services", WI'03).
//
// Every concept of a classified hierarchy is assigned an interval of the
// unit line such that intervals nest exactly along subsumption: concept A
// subsumes concept B if and only if B's interval is contained in (one of)
// A's. Once ontologies are encoded — an offline step — runtime semantic
// reasoning reduces to numeric comparison of interval bounds, which is what
// makes semantic matching competitive with syntactic matching.
//
// Sibling subdivision uses the paper's linear inverse exponential function
//
//	linKinvexpP(x) = 1/p^⌊x/k⌋ + (x mod k) · (1/k) · (1/p^⌊x/k⌋)
//
// whose consecutive values carve the half-open span (0, 2) into infinitely
// many disjoint, exponentially shrinking child slots: slot x is
// [f(x), f(x) + (1/k)/p^⌊x/k⌋). New siblings can therefore always be added
// without re-encoding existing ones.
//
// Hierarchies are DAGs, not trees, so a concept has one primary interval
// (from a spanning tree of the hierarchy) and its full code is the minimal
// set of primary intervals covering all of its descendants. Subsumption is
// then: primary(B) ⊆ some interval of code(A).
//
// Precision: nesting the subdivision in absolute float64 coordinates loses
// the tiny child widths once the parent offset dominates (the same force
// behind the paper's "1071 first-level entries" capacity figure). Encode
// therefore evaluates the subdivision exactly over rationals (math/big) and
// then maps the boundary set monotonically onto integer ranks. Containment
// is invariant under a monotone map, so runtime subsumption remains a plain
// numeric comparison — now exact at any depth and fanout.
package codes

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/big"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sariadne/internal/ontology"
)

// Errors reported by encoding and lookups.
var (
	// ErrBadParams is returned for parameters outside the valid range.
	ErrBadParams = errors.New("codes: p must be >= 2 and k >= 1")
	// ErrVersionMismatch is returned when codes from one ontology version
	// are compared against a table derived from another (Section 3.2's
	// consistency rule: stale codes must be refreshed, never compared).
	ErrVersionMismatch = errors.New("codes: ontology version mismatch")
	// ErrUnknownConcept is returned when a name has no code in the table.
	ErrUnknownConcept = errors.New("codes: unknown concept")
)

// Params selects the subdivision constants of the encoding function. The
// paper evaluates p=2, k=5, for which a 64-bit double supports 1071 entries
// on the first level and hundreds of levels of nesting.
type Params struct {
	P int
	K int
}

// DefaultParams are the constants evaluated in the paper.
var DefaultParams = Params{P: 2, K: 5}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.P < 2 || p.K < 1 {
		return fmt.Errorf("%w: got p=%d k=%d", ErrBadParams, p.P, p.K)
	}
	return nil
}

// Boundary evaluates the paper's linKinvexpP function at x: the lower edge
// of sibling slot x in the (0, 2) child span.
func Boundary(x int, p Params) float64 {
	block := x / p.K
	offset := x % p.K
	base := 1.0 / math.Pow(float64(p.P), float64(block))
	return base + float64(offset)*(1.0/float64(p.K))*base
}

// slotWidth returns the width of sibling slot x.
func slotWidth(x int, p Params) float64 {
	block := x / p.K
	return (1.0 / float64(p.K)) / math.Pow(float64(p.P), float64(block))
}

// Interval is a half-open interval [Lo, Hi) on the unit line.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether other ⊆ i.
func (i Interval) Contains(other Interval) bool {
	return i.Lo <= other.Lo && other.Hi <= i.Hi
}

// ContainsPoint reports whether x ∈ [Lo, Hi).
func (i Interval) ContainsPoint(x float64) bool {
	return i.Lo <= x && x < i.Hi
}

// Overlaps reports whether the two intervals share any point.
func (i Interval) Overlaps(other Interval) bool {
	return i.Lo < other.Hi && other.Lo < i.Hi
}

// Width returns Hi - Lo.
func (i Interval) Width() float64 { return i.Hi - i.Lo }

// IsZero reports whether the interval is the zero value.
func (i Interval) IsZero() bool { return i.Lo == 0 && i.Hi == 0 }

// String renders the interval with enough digits to be diagnosable.
func (i Interval) String() string { return fmt.Sprintf("[%.12g,%.12g)", i.Lo, i.Hi) }

// childSlot returns the interval of the x-th child inside parent, using the
// paper's subdivision: the (0,2) child span scaled by half into the parent.
// This float64 form illustrates the geometry; Encode uses the exact
// rational equivalent (childSlotRat).
func childSlot(parent Interval, x int, p Params) Interval {
	w := parent.Width()
	lo := parent.Lo + w*Boundary(x, p)/2
	return Interval{Lo: lo, Hi: lo + w*slotWidth(x, p)/2}
}

// ratInterval is an exact interval used during encoding.
type ratInterval struct {
	lo, hi *big.Rat
}

// boundaryRat is Boundary over exact rationals:
// (k + x mod k) / (k · p^⌊x/k⌋).
func boundaryRat(x int, p Params) *big.Rat {
	block := x / p.K
	offset := x % p.K
	den := new(big.Int).Exp(big.NewInt(int64(p.P)), big.NewInt(int64(block)), nil)
	den.Mul(den, big.NewInt(int64(p.K)))
	return new(big.Rat).SetFrac(big.NewInt(int64(p.K+offset)), den)
}

// slotWidthRat is slotWidth over exact rationals: 1 / (k · p^⌊x/k⌋).
func slotWidthRat(x int, p Params) *big.Rat {
	block := x / p.K
	den := new(big.Int).Exp(big.NewInt(int64(p.P)), big.NewInt(int64(block)), nil)
	den.Mul(den, big.NewInt(int64(p.K)))
	return new(big.Rat).SetFrac(big.NewInt(1), den)
}

// childSlotRat returns the exact interval of the x-th child inside parent.
func childSlotRat(parent ratInterval, x int, p Params) ratInterval {
	w := new(big.Rat).Sub(parent.hi, parent.lo)
	half := big.NewRat(1, 2)
	lo := new(big.Rat).Mul(w, boundaryRat(x, p))
	lo.Mul(lo, half)
	lo.Add(lo, parent.lo)
	hi := new(big.Rat).Mul(w, slotWidthRat(x, p))
	hi.Mul(hi, half)
	hi.Add(hi, lo)
	return ratInterval{lo: lo, hi: hi}
}

// Code is the full encoded identity of a concept: its primary interval plus
// the minimal cover of all descendants' primary intervals.
type Code struct {
	// Primary is the concept's own interval in the spanning tree; it
	// contains the primaries of all tree descendants.
	Primary Interval
	// Covers is the minimal set of intervals containing the primaries of
	// all hierarchy (DAG) descendants; it always includes Primary. Sorted
	// by Lo, pairwise non-nested.
	Covers []Interval
}

// Subsumes reports whether this code's concept subsumes the concept whose
// code is other: other's primary interval must fall inside one of the
// covering intervals. This is the paper's "semantic reasoning reduced to a
// numeric comparison of codes".
//
//sdp:hotpath
func (c Code) Subsumes(other Code) bool {
	for _, iv := range c.Covers {
		if iv.Contains(other.Primary) {
			return true
		}
	}
	return false
}

// Table holds the codes for every concept of one classified ontology
// version, along with the precomputed level distances that the matching
// relation's d(·,·) needs. Tables are immutable after Encode and safe for
// concurrent use.
type Table struct {
	uri     string
	version string
	params  Params

	names map[string]int // class name -> concept index
	codes []Code
	depth []int
	// ancestors[i] lists concept i's strict ancestors by ascending index,
	// each with the fewest hierarchy levels between the two: the level
	// count of a subsuming pair is a search in a short sorted row, with
	// nothing to hash inside a match operation.
	ancestors [][]ancestorLevels
}

type ancestorLevels struct{ ancestor, levels int }

// sortedAncestors lays a concept's ancestor closure out as a row of
// Table.ancestors.
func sortedAncestors(closure map[int]int) []ancestorLevels {
	row := make([]ancestorLevels, 0, len(closure))
	for a, d := range closure {
		row = append(row, ancestorLevels{ancestor: a, levels: d})
	}
	sort.Slice(row, func(i, j int) bool { return row[i].ancestor < row[j].ancestor })
	return row
}

// Encode derives the code table from a classified hierarchy. The spanning
// tree used for primary intervals picks each concept's first parent (in
// canonical order); remaining hierarchy edges only influence Covers.
func Encode(cl *ontology.Classified, params Params) (*Table, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := cl.NumConcepts()
	t := &Table{
		uri:       cl.URI(),
		version:   cl.Version(),
		params:    params,
		names:     make(map[string]int),
		codes:     make([]Code, n),
		depth:     make([]int, n),
		ancestors: make([][]ancestorLevels, n),
	}

	// Assign primary intervals by BFS over the spanning tree. The virtual
	// root spans [0, 1); hierarchy roots are its children.
	childCount := make([]int, n+1) // per tree parent; slot n is the virtual root
	treeParent := make([]int, n)
	for i := 0; i < n; i++ {
		parents := cl.Parents(i)
		if len(parents) == 0 {
			treeParent[i] = n
		} else {
			treeParent[i] = parents[0]
		}
		t.depth[i] = cl.Depth(i)
		t.ancestors[i] = sortedAncestors(cl.AncestorsIndex(i))
		for _, name := range cl.Members(i) {
			t.names[name] = i
		}
	}
	// Exact rational intervals, assigned by BFS from the roots so a
	// parent's interval exists before its tree children's. The virtual
	// root spans [0, 1).
	unit := ratInterval{lo: big.NewRat(0, 1), hi: big.NewRat(1, 1)}
	exact := make([]ratInterval, n)
	queue := cl.Roots()
	assigned := make([]bool, n)
	for _, r := range queue {
		exact[r] = childSlotRat(unit, childCount[n], params)
		childCount[n]++
		assigned[r] = true
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, c := range cl.Children(u) {
			if treeParent[c] != u || assigned[c] {
				continue
			}
			exact[c] = childSlotRat(exact[u], childCount[u], params)
			childCount[u]++
			assigned[c] = true
			queue = append(queue, c)
		}
	}
	for i := 0; i < n; i++ {
		if !assigned[i] {
			// Unreachable via tree-parent BFS cannot happen in a DAG, but
			// guard against it rather than emit a zero interval silently.
			return nil, fmt.Errorf("codes: concept %q not assigned an interval", cl.CanonicalName(i))
		}
	}

	// Compress the exact boundaries onto integer ranks. The map is
	// monotone, so interval containment — the only relation runtime
	// matching consults — is preserved exactly, while comparisons stay
	// plain float64 (holding small integers, hence exact).
	bounds := make([]*big.Rat, 0, 2*n)
	for i := 0; i < n; i++ {
		bounds = append(bounds, exact[i].lo, exact[i].hi)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].Cmp(bounds[j]) < 0 })
	rank := func(r *big.Rat) float64 {
		// Binary search for the first equal element; duplicates share ranks
		// because the slice is sorted and Cmp-based search finds the run.
		lo, hi := 0, len(bounds)
		for lo < hi {
			mid := (lo + hi) / 2
			if bounds[mid].Cmp(r) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return float64(lo)
	}
	for i := 0; i < n; i++ {
		t.codes[i].Primary = Interval{Lo: rank(exact[i].lo), Hi: rank(exact[i].hi)}
	}

	// Covers: a concept's cover is its own primary plus the primaries of
	// every strict descendant, minimized by dropping intervals nested in
	// another. Descendant sets come from the ancestor closure.
	desc := make([][]int, n)
	for i := 0; i < n; i++ {
		for _, a := range t.ancestors[i] {
			desc[a.ancestor] = append(desc[a.ancestor], i)
		}
	}
	for i := 0; i < n; i++ {
		ivs := []Interval{t.codes[i].Primary}
		for _, d := range desc[i] {
			ivs = append(ivs, t.codes[d].Primary)
		}
		t.codes[i].Covers = minimizeCover(ivs)
	}
	return t, nil
}

// MustEncode is Encode that panics on error; for static fixtures.
func MustEncode(cl *ontology.Classified, params Params) *Table {
	t, err := Encode(cl, params)
	if err != nil {
		panic(err)
	}
	return t
}

// minimizeCover drops intervals contained in another and sorts by Lo.
func minimizeCover(ivs []Interval) []Interval {
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].Lo != ivs[j].Lo {
			return ivs[i].Lo < ivs[j].Lo
		}
		return ivs[i].Hi > ivs[j].Hi // widest first among same Lo
	})
	out := ivs[:0]
	var maxHi float64 = -1
	for _, iv := range ivs {
		if iv.Hi <= maxHi {
			continue // nested in a previously kept interval
		}
		out = append(out, iv)
		maxHi = iv.Hi
	}
	return append([]Interval(nil), out...)
}

// URI returns the ontology URI the table encodes.
func (t *Table) URI() string { return t.uri }

// Version returns the ontology version the table was derived from.
func (t *Table) Version() string { return t.version }

// Params returns the subdivision constants used.
func (t *Table) Params() Params { return t.params }

// NumConcepts returns the number of encoded canonical concepts.
func (t *Table) NumConcepts() int { return len(t.codes) }

// Code returns the code of the named class.
func (t *Table) Code(name string) (Code, bool) {
	i, ok := t.names[name]
	if !ok {
		return Code{}, false
	}
	return t.codes[i], true
}

// Index returns the concept index of the named class: the one name
// resolution of the table. Every member name of an equivalence class
// resolves to the same index. Indices are private to this table — one taken
// from another table, even another version of the same ontology, names a
// different concept or none.
//
//sdp:hotpath
func (t *Table) Index(name string) (int, bool) {
	i, ok := t.names[name]
	return i, ok
}

// Subsumes reports whether class a subsumes class b, by numeric interval
// comparison only. Unknown names never subsume anything.
//
//sdp:hotpath
func (t *Table) Subsumes(a, b string) bool {
	ai, ok := t.names[a]
	if !ok {
		return false
	}
	bi, ok := t.names[b]
	if !ok {
		return false
	}
	if ai == bi {
		return true
	}
	return t.codes[ai].Subsumes(t.codes[bi])
}

// Distance implements the paper's d(a, b): the number of hierarchy levels
// separating a from b when a subsumes b (0 if equivalent), with ok=false
// (the paper's NULL) otherwise. It resolves the two names and asks
// DistanceAt.
//
//sdp:hotpath
func (t *Table) Distance(a, b string) (int, bool) {
	ai, ok := t.names[a]
	if !ok {
		return 0, false
	}
	bi, ok := t.names[b]
	if !ok {
		return 0, false
	}
	return t.DistanceAt(ai, bi)
}

// DistanceAt is d(a, b) over concept indices of this table (see Index), the
// form matching runs on once names are resolved: subsumption is established
// by the numeric codes, the level count is read from the table precomputed
// at encoding time, so neither a reasoner nor a string is touched at match
// time. An index outside the table matches nothing.
//
//sdp:hotpath
func (t *Table) DistanceAt(ai, bi int) (int, bool) {
	if uint(ai) >= uint(len(t.codes)) || uint(bi) >= uint(len(t.codes)) {
		return 0, false
	}
	if ai == bi {
		return 0, true
	}
	if !t.codes[ai].Subsumes(t.codes[bi]) {
		return 0, false
	}
	row := t.ancestors[bi]
	lo, hi := 0, len(row)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); row[mid].ancestor < ai {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(row) || row[lo].ancestor != ai {
		// The codes said subsumption holds but the closure disagrees; this
		// indicates table corruption and must not silently report a match.
		return 0, false
	}
	return row[lo].levels, true
}

// Stats summarizes encoding health: how deep the hierarchy goes and how
// narrow the narrowest interval is (when widths approach the double's
// precision floor, the encoding must be re-parameterized).
type Stats struct {
	Concepts  int
	MaxDepth  int
	MinWidth  float64
	MaxCovers int
}

// Stats computes encoding statistics for diagnostics and capacity planning.
func (t *Table) Stats() Stats {
	s := Stats{Concepts: len(t.codes), MinWidth: math.Inf(1)}
	for i, c := range t.codes {
		if t.depth[i] > s.MaxDepth {
			s.MaxDepth = t.depth[i]
		}
		if w := c.Primary.Width(); w < s.MinWidth {
			s.MinWidth = w
		}
		if len(c.Covers) > s.MaxCovers {
			s.MaxCovers = len(c.Covers)
		}
	}
	if len(t.codes) == 0 {
		s.MinWidth = 0
	}
	return s
}

// Registry resolves ontology URIs to code tables and enforces the version
// consistency rule: a lookup with a version other than the registered
// table's fails with ErrVersionMismatch. It is safe for concurrent use and
// copy-on-write: readers load the current immutable Tables without taking a
// lock, Register publishes a copy with the table added.
type Registry struct {
	mu    sync.Mutex // serializes Register
	state atomic.Pointer[Tables]
}

// Tables is one immutable state of a Registry. A reader that resolves
// several names, or compares indices it resolved earlier, does so against
// one Tables value so that the answers belong together.
//
// Every registered table has a number, unique in its registry for all
// time: Register hands out the next one, also to a table that replaces
// another of the same URI, whose number is retired with it. Concept
// indices resolved against a table are therefore only ever compared under
// the number they were resolved with — after a replacement the old indices
// find no table, they do not address the new one (Section 3.2: stale codes
// are refreshed, never compared). Number 0 is never assigned: it stands
// for "no table".
//
//sdp:immutable
type Tables struct {
	numbers map[string]uint32 // ontology URI -> number of its current table
	tables  []*Table          // by number; nil at 0 and at retired numbers
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.state.Store(&Tables{numbers: map[string]uint32{}, tables: []*Table{nil}})
	return r
}

// cloneWith returns the tables with t added under the next number, in
// place of any table of the same URI.
func (ts *Tables) cloneWith(t *Table) *Tables {
	next := &Tables{numbers: maps.Clone(ts.numbers), tables: slices.Clone(ts.tables)}
	if old, ok := next.numbers[t.uri]; ok {
		next.tables[old] = nil
	}
	next.numbers[t.uri] = uint32(len(next.tables))
	next.tables = append(next.tables, t)
	return next
}

// Resolve returns the table for an ontology URI and its number.
func (ts *Tables) Resolve(uri string) (t *Table, number uint32, ok bool) {
	number, ok = ts.numbers[uri]
	return ts.tables[number], number, ok
}

// Numbered returns the table registered under number, nil when there is
// none: number 0, a retired number, or one this state has not reached.
//
//sdp:hotpath
func (ts *Tables) Numbered(number uint32) *Table {
	if int(number) >= len(ts.tables) {
		return nil
	}
	return ts.tables[number]
}

// Register adds or replaces the table for its ontology URI. Whoever keeps
// indices resolved against a replaced table re-resolves them (see Tables).
func (r *Registry) Register(t *Table) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state.Store(r.state.Load().cloneWith(t))
}

// Tables returns the registry's current state.
//
//sdp:hotpath
func (r *Registry) Tables() *Tables { return r.state.Load() }

// Resolve returns the table for an ontology URI.
func (r *Registry) Resolve(uri string) (*Table, bool) {
	t, _, ok := r.state.Load().Resolve(uri)
	return t, ok
}

// ResolveVersion returns the table for the URI only if its version matches.
func (r *Registry) ResolveVersion(uri, version string) (*Table, error) {
	t, ok := r.Resolve(uri)
	if !ok {
		return nil, fmt.Errorf("%w: no table for ontology %q", ErrUnknownConcept, uri)
	}
	if t.version != version {
		return nil, fmt.Errorf("%w: ontology %q has version %q, codes carry %q", ErrVersionMismatch, uri, t.version, version)
	}
	return t, nil
}

// URIs returns the registered ontology URIs in sorted order.
func (r *Registry) URIs() []string {
	return slices.Sorted(maps.Keys(r.state.Load().numbers))
}

// Len returns the number of registered tables.
func (r *Registry) Len() int { return len(r.state.Load().numbers) }
