package match

import (
	"fmt"
	"math/rand"
	"testing"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
)

// encodedWorld is what the differential tests draw capabilities from:
// three generated ontologies with multi-parent concepts and a few classes
// declared equivalent to others, the first two registered with the matcher
// and the third not, and a pool of references over all three plus an
// ontology nobody declared — class names, equivalent-class member names and
// names no ontology has.
type encodedWorld struct {
	reg  *codes.Registry
	cm   *CodeMatcher
	refs []ontology.Ref
	// tables[i] encodes the i-th ontology; the third is not registered.
	tables []*codes.Table
}

func newEncodedWorld(tb testing.TB, seed int64) *encodedWorld {
	return newWorldOf(tb, seed, worldShapes[0])
}

// worldShape varies a world where the signatures could go wrong: a first
// ontology too large for every concept to own a bit of the 32, or one whose
// table was replaced by another version — another hierarchy over the same
// names — before any capability was drawn.
type worldShape struct {
	name          string
	firstClasses  int
	replacedFirst bool
}

var worldShapes = []worldShape{
	{name: "small", firstClasses: 14},
	{name: "shared-bits", firstClasses: 90},
	{name: "replaced", firstClasses: 14, replacedFirst: true},
}

func newWorldOf(tb testing.TB, seed int64, shape worldShape) *encodedWorld {
	tb.Helper()
	w := &encodedWorld{reg: codes.NewRegistry()}
	for i := 0; i < 3; i++ {
		classes := 14
		if i == 0 {
			classes = shape.firstClasses
		}
		o := worldOntology(i, "1", seed, classes)
		t, err := codes.Encode(ontology.MustClassify(o), codes.DefaultParams)
		if err != nil {
			tb.Fatal(err)
		}
		w.tables = append(w.tables, t)
		if i < 2 {
			w.reg.Register(t)
		}
		for _, c := range o.Classes() {
			w.refs = append(w.refs, ontology.Ref{Ontology: o.URI, Name: c.Name})
		}
		w.refs = append(w.refs, ontology.Ref{Ontology: o.URI, Name: "NoSuchClass"})
	}
	if shape.replacedFirst {
		t := codes.MustEncode(ontology.MustClassify(worldOntology(0, "2", seed+99, shape.firstClasses)), codes.DefaultParams)
		w.reg.Register(t)
		w.tables[0] = t
	}
	w.refs = append(w.refs, ontology.Ref{Ontology: "http://example.org/undeclared", Name: "C001"})
	w.cm = NewCodeMatcher(w.reg)
	return w
}

// worldOntology generates the i-th ontology of a world: the given number
// of classes, four extra parents, and three more classes each declared
// equivalent to one of those, so that two names resolve to one concept.
func worldOntology(i int, version string, seed int64, classes int) *ontology.Ontology {
	o := gen.Ontology(gen.OntologyConfig{
		URI:          fmt.Sprintf("http://example.org/world/%d", i),
		Version:      version,
		Classes:      classes,
		ExtraParents: 4,
		Seed:         seed*31 + int64(i),
	})
	for _, n := range []int{2, 5, 9} {
		o.MustAddClass(ontology.Class{Name: fmt.Sprintf("E%03d", n), EquivalentTo: []string{fmt.Sprintf("C%03d", n)}})
	}
	return o
}

// capability draws a capability from the world: pick chooses an index
// below n, however the caller comes by its choices.
func (w *encodedWorld) capability(name string, pick func(n int) int) *profile.Capability {
	ref := func() ontology.Ref { return w.refs[pick(len(w.refs))] }
	refs := func(max int) []ontology.Ref {
		var out []ontology.Ref
		for n := pick(max + 1); n > 0; n-- {
			out = append(out, ref())
		}
		return out
	}
	return &profile.Capability{Name: name, Category: ref(), Inputs: refs(3), Outputs: refs(3), Properties: refs(2)}
}

// checkEncodedEqualsByName requires the encoded distance of (c1, c2) to be
// the by-name SemanticDistance, through the code matcher and through the
// by-name seam a directory over any other matcher uses, and MayMatch to
// let every pair through that matches by name: over code tables that is
// the signatures' soundness, over the by-name seam MayMatch is always true.
// It reports whether the pair matches, and whether MayMatch ruled it out.
func checkEncodedEqualsByName(t *testing.T, w *encodedWorld, c1, c2 *profile.Capability) (matched, ruledOut bool) {
	t.Helper()
	wantD, wantOK := SemanticDistance(w.cm, c1, c2)
	for name, em := range map[string]EncodedMatcher{"codes": w.cm, "by-name": EncoderFor(struct{ ConceptMatcher }{w.cm})} {
		e1, e2 := em.Encode(c1), em.Encode(c2)
		gotD, gotOK := em.EncodedDistance(e1, e2)
		if gotD != wantD || gotOK != wantOK {
			t.Fatalf("%s: encoded distance (%d, %v), by name (%d, %v)\n c1 %+v\n c2 %+v", name, gotD, gotOK, wantD, wantOK, c1, c2)
		}
		may := MayMatch(e1, e2)
		if !may && (wantOK || name == "by-name") {
			t.Fatalf("%s: MayMatch rules out a pair that matches by name at (%d, %v)\n c1 %+v\n c2 %+v", name, wantD, wantOK, c1, c2)
		}
		ruledOut = ruledOut || !may
	}
	return wantOK, ruledOut
}

// TestEncodedDistanceEqualsSemanticDistance is the differential property:
// over random capabilities — and over pairs derived from one another, so
// that a good share of them match — the encoded distance is the by-name
// distance, found or not.
func TestEncodedDistanceEqualsSemanticDistance(t *testing.T) {
	for _, shape := range worldShapes {
		t.Run(shape.name, func(t *testing.T) { checkWorld(t, shape) })
	}
}

func checkWorld(t *testing.T, shape worldShape) {
	for seed := int64(1); seed <= 4; seed++ {
		w := newWorldOf(t, seed, shape)
		rng := rand.New(rand.NewSource(seed))
		if _, ok := EncoderFor(w.cm).(*CodeMatcher); !ok {
			t.Fatal("EncoderFor(CodeMatcher) does not return the code matcher's own encoded matching")
		}
		matched, ruledOut := 0, 0
		count := func(m, r bool) {
			if m {
				matched++
			}
			if r {
				ruledOut++
			}
		}
		for i := 0; i < 3000; i++ {
			c1 := w.capability("c1", rng.Intn)
			c2 := w.capability("c2", rng.Intn)
			if i%2 == 0 {
				// A request close to c1: same shape, a few references redrawn.
				c2 = c1.Clone()
				redraw := func(refs []ontology.Ref) {
					for j := range refs {
						if rng.Intn(3) == 0 {
							refs[j] = w.refs[rng.Intn(len(w.refs))]
						}
					}
				}
				redraw(c2.Inputs)
				redraw(c2.Outputs)
				redraw(c2.Properties)
			}
			count(checkEncodedEqualsByName(t, w, c1, c2))
			count(checkEncodedEqualsByName(t, w, c2, c1))
		}
		if matched < 100 || ruledOut < 1000 {
			t.Errorf("seed %d: of 6000 pairs %d matched and MayMatch ruled out %d; the property is checked on one kind alone", seed, matched, ruledOut)
		}
	}
}

// TestEncodedMemberNamesShareAConcept pins the equivalent-class case down:
// a class and one declared equivalent to it encode to the same handle.
func TestEncodedMemberNamesShareAConcept(t *testing.T) {
	w := newEncodedWorld(t, 1)
	uri := w.tables[0].URI()
	a := w.cm.Encode(&profile.Capability{Name: "a", Category: ontology.Ref{Ontology: uri, Name: "C005"}})
	b := w.cm.Encode(&profile.Capability{Name: "b", Category: ontology.Ref{Ontology: uri, Name: "E005"}})
	if a.handles[0] != b.handles[0] || a.handles[0] == (handle{}) {
		t.Fatalf("C005 and its equivalent E005 encode to %+v and %+v", a.handles[0], b.handles[0])
	}
	if a.NumRefs() != 1 {
		t.Fatalf("a capability with only a category resolved %d references", a.NumRefs())
	}
}

// TestEncodedStaleTableNeverCompared: once a table is replaced, what was
// encoded against the old one matches nothing — not a capability encoded
// against the new table, whose indices mean other concepts, and not
// another stale one — until it is encoded again, and then it matches as by
// name over the new table.
func TestEncodedStaleTableNeverCompared(t *testing.T) {
	w := newEncodedWorld(t, 1)
	uri := w.tables[0].URI()
	c := &profile.Capability{Name: "c", Category: ontology.Ref{Ontology: uri, Name: "C003"}}
	stale := w.cm.Encode(c)
	if d, ok := w.cm.EncodedDistance(stale, stale); !ok || d != 0 {
		t.Fatalf("before the replacement c matches itself at (%d, %v)", d, ok)
	}
	// Version 2 of the ontology: another hierarchy over the same names.
	w.reg.Register(codes.MustEncode(ontology.MustClassify(worldOntology(0, "2", 99, 14)), codes.DefaultParams))
	fresh := w.cm.Encode(c)
	for name, pair := range map[string][2]*Encoded{"stale/fresh": {stale, fresh}, "fresh/stale": {fresh, stale}, "stale/stale": {stale, stale}} {
		if _, ok := w.cm.EncodedDistance(pair[0], pair[1]); ok {
			t.Errorf("%s: handles of a replaced table were compared", name)
		}
	}
	if d, ok := w.cm.EncodedDistance(fresh, fresh); !ok || d != 0 {
		t.Fatalf("encoded again, c matches itself at (%d, %v)", d, ok)
	}
}

// FuzzEncodedDistance lets the fuzzer pick the two capabilities: each byte
// of the input is one choice (a count, or an index into the reference
// pool), and an exhausted input chooses 0.
func FuzzEncodedDistance(f *testing.F) {
	w := newEncodedWorld(f, 1)
	f.Add([]byte{})
	f.Add([]byte{7, 1, 8, 1, 9, 0, 7, 1, 8, 1, 9, 0})
	f.Add([]byte{3, 2, 4, 5, 2, 6, 16, 1, 17, 20, 1, 4, 0, 1, 6, 0})
	f.Add([]byte{51, 0, 0, 0, 15, 1, 33, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		c1 := w.capability("c1", pick)
		c2 := w.capability("c2", pick)
		checkEncodedEqualsByName(t, w, c1, c2)
		checkEncodedEqualsByName(t, w, c2, c1)
	})
}

// BenchmarkRuledOutPair is what a match operation that finds nothing
// costs with the codes alone and with the signatures: pairs drawn from the
// world that MayMatch rules out, compared by EncodedDistance and by
// MayMatch.
func BenchmarkRuledOutPair(b *testing.B) {
	w := newEncodedWorld(b, 1)
	rng := rand.New(rand.NewSource(1))
	var pairs [][2]*Encoded
	for len(pairs) < 1024 {
		c1, c2 := w.cm.Encode(w.capability("c1", rng.Intn)), w.cm.Encode(w.capability("c2", rng.Intn))
		if !MayMatch(c1, c2) {
			pairs = append(pairs, [2]*Encoded{c1, c2})
		}
	}
	b.Run("codes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, ok := w.cm.EncodedDistance(p[0], p[1]); ok {
				b.Fatal("a pair MayMatch ruled out matched")
			}
		}
	})
	b.Run("signatures", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if MayMatch(p[0], p[1]) {
				b.Fatal("MayMatch changed its mind")
			}
		}
	})
}
