package match

import (
	"sariadne/internal/codes"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
)

// Section 3.2 has capabilities carry codes, so that matching compares
// numbers: a name is looked up once, when the capability reaches the
// directory, and never while it is matched. Encoded is that form of a
// capability and EncodedMatcher the seam a directory matches through.
// SemanticDistance above stays the by-name definition the encoded distance
// must agree with; the linear-scan oracle and the tests call it.

// EncodedMatcher matches capabilities it has prepared itself: Encode once
// per capability, EncodedDistance once per match operation. The two
// capabilities handed to EncodedDistance come from this matcher's Encode.
type EncodedMatcher interface {
	// Encode prepares c for matching. c must not change afterwards.
	Encode(c *profile.Capability) *Encoded
	// EncodedDistance is SemanticDistance(c1, c2) over prepared capabilities.
	EncodedDistance(c1, c2 *Encoded) (int, bool)
}

// EncoderFor returns m's own encoded matching when it offers one (the
// CodeMatcher does), and otherwise matching by name through m, for which
// "encoded" is the capability itself: a directory over a reasoner-backed
// HierarchyMatcher runs the same code as one over code tables.
func EncoderFor(m ConceptMatcher) EncodedMatcher {
	if em, ok := m.(EncodedMatcher); ok {
		return em
	}
	return byName{m}
}

type byName struct{ m ConceptMatcher }

func (b byName) Encode(c *profile.Capability) *Encoded { return &Encoded{cap: c} }

func (b byName) EncodedDistance(c1, c2 *Encoded) (int, bool) {
	return SemanticDistance(b.m, c1.cap, c2.cap)
}

// handle is one concept reference resolved against a code table: the
// table's number in the registry and the concept's index in the table.
// The zero handle is a reference that resolved to nothing — no table for
// its ontology, or no such class in it — and matches nothing, as the name
// does. Handles hold no pointer, so a directory full of them adds nothing
// for the collector to trace.
type handle struct {
	table uint32
	index uint32
}

// Encoded is a capability prepared by one matcher. It is immutable, like
// the capability it was made from.
//
//sdp:immutable
type Encoded struct {
	cap *profile.Capability
	// handles holds the capability's resolved references in one array:
	// category and properties (the property set of the matching relation),
	// then inputs from inputsAt, then outputs from outputsAt. Nil when the
	// matcher works by name. The offsets and the masks are 32-bit so that an
	// Encoded is 64 bytes, and a directory entry that embeds one 104.
	handles             []handle
	inputsAt, outputsAt int32
	sig                 signature
}

// signature is the OR of the codes.Signature of every reference of one
// role, in the two masks MayMatch reads of it: Self, and the closure the
// other side of a match is looked for in. The zero signature — a
// capability matched by name, or one none of whose references resolved —
// rules nothing out.
type signature struct {
	propSelf, propDown uint32 // category and properties
	inSelf, inUp       uint32
	outSelf, outDown   uint32
}

// MayMatch is a necessary condition of EncodedDistance(c1, c2) finding a
// distance, answered from the two signatures in three AND-NOTs, one per
// loop of EncodedDistance: every input c1 expects needs one of c2's
// inputs below it, every output c2 expects one of c1's outputs above it,
// every property c2 requires one of c1's properties above it. A concept
// that subsumes another has its Self bit in the other's Up, and the other's
// in its Down (codes.Signature), so a missing bit proves the comparison
// would fail; false is always right, true only means the codes must be
// compared. Over capabilities encoded by name it is always true.
//
//sdp:hotpath
func MayMatch(c1, c2 *Encoded) bool {
	return c1.sig.inSelf&^c2.sig.inUp|
		c2.sig.outSelf&^c1.sig.outDown|
		c2.sig.propSelf&^c1.sig.propDown == 0
}

// Capability returns the capability e was made from.
func (e *Encoded) Capability() *profile.Capability { return e.cap }

// NumRefs returns the number of concept references resolved to make e.
func (e *Encoded) NumRefs() int { return len(e.handles) }

func (e *Encoded) properties() []handle { return e.handles[:e.inputsAt] }
func (e *Encoded) inputs() []handle     { return e.handles[e.inputsAt:e.outputsAt] }
func (e *Encoded) outputs() []handle    { return e.handles[e.outputsAt:] }

// Encode implements EncodedMatcher: every reference of c is resolved
// against the registry's current tables, all of them against the same
// state. Those are the only name lookups matching c will ever cost.
func (m *CodeMatcher) Encode(c *profile.Capability) *Encoded {
	return newEncoded(m.reg.Tables(), c)
}

func newEncoded(ts *codes.Tables, c *profile.Capability) *Encoded {
	e := &Encoded{
		cap:       c,
		handles:   make([]handle, 0, 1+len(c.Properties)+len(c.Inputs)+len(c.Outputs)),
		inputsAt:  int32(1 + len(c.Properties)),
		outputsAt: int32(1 + len(c.Properties) + len(c.Inputs)),
	}
	// Consecutive references mostly share an ontology: its table is looked
	// up when the URI changes, not per reference.
	var (
		uri    string
		table  *codes.Table
		number uint32
	)
	resolve := func(r ontology.Ref) codes.Signature {
		if r.Ontology != uri || table == nil {
			uri = r.Ontology
			table, number, _ = ts.Resolve(uri)
		}
		var (
			h   handle
			sig codes.Signature
		)
		if table != nil {
			if i, ok := table.Index(r.Name); ok {
				h = handle{table: number, index: uint32(i)}
				sig = table.SignatureAt(i)
			}
		}
		e.handles = append(e.handles, h)
		return sig
	}
	sig := resolve(c.Category)
	e.sig.propSelf, e.sig.propDown = sig.Self, sig.Down
	for _, r := range c.Properties {
		sig := resolve(r)
		e.sig.propSelf |= sig.Self
		e.sig.propDown |= sig.Down
	}
	for _, r := range c.Inputs {
		sig := resolve(r)
		e.sig.inSelf |= sig.Self
		e.sig.inUp |= sig.Up
	}
	for _, r := range c.Outputs {
		sig := resolve(r)
		e.sig.outSelf |= sig.Self
		e.sig.outDown |= sig.Down
	}
	return e
}

// EncodedDistance implements EncodedMatcher. It is SemanticDistance with
// every d(a, b) answered from two handles: same table, then same concept,
// then interval containment and the level table — integers and interval
// bounds, no string and no allocation. The tables are read once per call,
// so every pair of one match operation sees the same registry state.
//
//sdp:hotpath
func (m *CodeMatcher) EncodedDistance(c1, c2 *Encoded) (int, bool) {
	ts := m.reg.Tables()
	total := 0
	for _, expected := range c1.inputs() {
		d, ok := nearestBelow(ts, expected, c2.inputs())
		if !ok {
			return 0, false
		}
		total += d
	}
	for _, expected := range c2.outputs() {
		d, ok := nearestAbove(ts, c1.outputs(), expected)
		if !ok {
			return 0, false
		}
		total += d
	}
	for _, required := range c2.properties() {
		d, ok := nearestAbove(ts, c1.properties(), required)
		if !ok {
			return 0, false
		}
		total += d
	}
	return total, true
}

// nearestBelow finds min d(from, cand) over candidates.
//
//sdp:hotpath
func nearestBelow(ts *codes.Tables, from handle, candidates []handle) (int, bool) {
	best, found := 0, false
	for _, cand := range candidates {
		if d, ok := handleDistance(ts, from, cand); ok && (!found || d < best) {
			best, found = d, true
		}
	}
	return best, found
}

// nearestAbove finds min d(cand, to) over candidates.
//
//sdp:hotpath
func nearestAbove(ts *codes.Tables, candidates []handle, to handle) (int, bool) {
	best, found := 0, false
	for _, cand := range candidates {
		if d, ok := handleDistance(ts, cand, to); ok && (!found || d < best) {
			best, found = d, true
		}
	}
	return best, found
}

// handleDistance is d(a, b) over handles. Handles of different tables
// never match — different ontologies, or one ontology before and after its
// table was replaced — and neither does a handle whose table has since been
// replaced: its number is retired, so its index is never read against the
// new table.
//
//sdp:hotpath
func handleDistance(ts *codes.Tables, a, b handle) (int, bool) {
	if a.table != b.table {
		return 0, false
	}
	t := ts.Numbered(a.table)
	if t == nil {
		return 0, false
	}
	return t.DistanceAt(int(a.index), int(b.index))
}

var _ EncodedMatcher = (*CodeMatcher)(nil)
