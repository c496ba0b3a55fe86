package codes

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"sariadne/internal/ontology"
)

func mediaClassified(t testing.TB) *ontology.Classified {
	t.Helper()
	o := ontology.New("http://amigo.example/ont/media", "1")
	for _, c := range []ontology.Class{
		{Name: "Resource"},
		{Name: "DigitalResource", SubClassOf: []string{"Resource"}},
		{Name: "VideoResource", SubClassOf: []string{"DigitalResource"}},
		{Name: "SoundResource", SubClassOf: []string{"DigitalResource"}},
		{Name: "GameResource", SubClassOf: []string{"DigitalResource"}},
		{Name: "Movie", SubClassOf: []string{"VideoResource"}},
		{Name: "Film", EquivalentTo: []string{"Movie"}},
		{Name: "Stream"},
		{Name: "VideoStream", SubClassOf: []string{"Stream"}},
	} {
		o.MustAddClass(c)
	}
	return ontology.MustClassify(o)
}

func TestBoundaryMatchesPaperExamples(t *testing.T) {
	// With p=2, k=5 the function produces, block by block:
	//   x=0..4  -> 1, 1.2, 1.4, 1.6, 1.8
	//   x=5..9  -> 0.5, 0.6, 0.7, 0.8, 0.9
	//   x=10..14-> 0.25, 0.3, 0.35, 0.4, 0.45
	want := map[int]float64{
		0: 1, 1: 1.2, 2: 1.4, 3: 1.6, 4: 1.8,
		5: 0.5, 6: 0.6, 7: 0.7, 8: 0.8, 9: 0.9,
		10: 0.25, 11: 0.3, 12: 0.35, 13: 0.4, 14: 0.45,
	}
	for x, w := range want {
		if got := Boundary(x, DefaultParams); math.Abs(got-w) > 1e-12 {
			t.Errorf("Boundary(%d) = %v, want %v", x, got, w)
		}
	}
}

func TestSlotsDisjointAndShrinking(t *testing.T) {
	// Sibling slots never overlap, regardless of index, and widths shrink
	// from block to block.
	parent := Interval{Lo: 0, Hi: 1}
	var slots []Interval
	for x := 0; x < 60; x++ {
		slots = append(slots, childSlot(parent, x, DefaultParams))
	}
	for i, a := range slots {
		if a.Lo < parent.Lo || a.Hi > parent.Hi {
			t.Fatalf("slot %d %v escapes parent", i, a)
		}
		for j, b := range slots {
			if i != j && a.Overlaps(b) {
				t.Fatalf("slots %d %v and %d %v overlap", i, a, j, b)
			}
		}
	}
	if slots[5].Width() >= slots[0].Width() {
		t.Error("widths do not shrink across blocks")
	}
}

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{{1, 5}, {0, 0}, {2, 0}, {-2, 5}} {
		if err := p.Validate(); !errors.Is(err, ErrBadParams) {
			t.Errorf("Params%v.Validate() = %v, want ErrBadParams", p, err)
		}
	}
	if err := DefaultParams.Validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
	if _, err := Encode(mediaClassified(t), Params{P: 1, K: 0}); err == nil {
		t.Error("Encode accepted bad params")
	}
}

func TestEncodeSubsumptionAgreesWithClassified(t *testing.T) {
	cl := mediaClassified(t)
	tbl := MustEncode(cl, DefaultParams)

	names := []string{"Resource", "DigitalResource", "VideoResource", "SoundResource",
		"GameResource", "Movie", "Film", "Stream", "VideoStream"}
	for _, a := range names {
		for _, b := range names {
			if got, want := tbl.Subsumes(a, b), cl.Subsumes(a, b); got != want {
				t.Errorf("Subsumes(%q,%q): codes=%v classified=%v", a, b, got, want)
			}
		}
	}
}

func TestEncodeDistanceAgreesWithClassified(t *testing.T) {
	cl := mediaClassified(t)
	tbl := MustEncode(cl, DefaultParams)
	names := []string{"Resource", "DigitalResource", "VideoResource", "Movie", "Film", "Stream"}
	for _, a := range names {
		for _, b := range names {
			gd, gok := tbl.Distance(a, b)
			wd, wok := cl.Distance(a, b)
			if gd != wd || gok != wok {
				t.Errorf("Distance(%q,%q): codes=(%d,%v) classified=(%d,%v)", a, b, gd, gok, wd, wok)
			}
		}
	}
}

func TestUnknownNames(t *testing.T) {
	tbl := MustEncode(mediaClassified(t), DefaultParams)
	if tbl.Subsumes("Nope", "Movie") || tbl.Subsumes("Movie", "Nope") {
		t.Error("unknown names must not subsume")
	}
	if _, ok := tbl.Distance("Nope", "Movie"); ok {
		t.Error("distance to unknown name must be NULL")
	}
	if _, ok := tbl.Code("Nope"); ok {
		t.Error("Code returned ok for unknown name")
	}
}

func TestEquivalentShareCode(t *testing.T) {
	tbl := MustEncode(mediaClassified(t), DefaultParams)
	cm, ok1 := tbl.Code("Movie")
	cf, ok2 := tbl.Code("Film")
	if !ok1 || !ok2 {
		t.Fatal("missing codes")
	}
	if cm.Primary != cf.Primary {
		t.Fatalf("equivalent classes have distinct primaries: %v vs %v", cm.Primary, cf.Primary)
	}
}

func TestIntervalOps(t *testing.T) {
	a := Interval{Lo: 0.2, Hi: 0.8}
	tests := []struct {
		b                  Interval
		contains, overlaps bool
	}{
		{Interval{0.3, 0.5}, true, true},
		{Interval{0.2, 0.8}, true, true},
		{Interval{0.1, 0.5}, false, true},
		{Interval{0.5, 0.9}, false, true},
		{Interval{0.8, 0.9}, false, false}, // half-open: touching is disjoint
		{Interval{0.0, 0.2}, false, false},
	}
	for _, tt := range tests {
		if got := a.Contains(tt.b); got != tt.contains {
			t.Errorf("%v.Contains(%v) = %v, want %v", a, tt.b, got, tt.contains)
		}
		if got := a.Overlaps(tt.b); got != tt.overlaps {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", a, tt.b, got, tt.overlaps)
		}
	}
	if !a.ContainsPoint(0.2) || a.ContainsPoint(0.8) {
		t.Error("ContainsPoint half-open semantics violated")
	}
	if a.Width() != 0.6000000000000001 && math.Abs(a.Width()-0.6) > 1e-12 {
		t.Errorf("Width = %v", a.Width())
	}
	if a.IsZero() || !(Interval{}).IsZero() {
		t.Error("IsZero wrong")
	}
	if s := a.String(); s == "" {
		t.Error("empty String")
	}
}

func TestStats(t *testing.T) {
	tbl := MustEncode(mediaClassified(t), DefaultParams)
	s := tbl.Stats()
	if s.Concepts != 8 { // Movie+Film collapsed
		t.Errorf("Concepts = %d, want 8", s.Concepts)
	}
	if s.MaxDepth != 3 {
		t.Errorf("MaxDepth = %d, want 3", s.MaxDepth)
	}
	if s.MinWidth <= 0 {
		t.Errorf("MinWidth = %v, want > 0", s.MinWidth)
	}
	if s.MaxCovers < 1 {
		t.Errorf("MaxCovers = %d", s.MaxCovers)
	}
}

func TestRegistry(t *testing.T) {
	cl := mediaClassified(t)
	tbl := MustEncode(cl, DefaultParams)
	r := NewRegistry()
	if r.Len() != 0 {
		t.Fatal("new registry not empty")
	}
	r.Register(tbl)
	if r.Len() != 1 {
		t.Fatal("Len != 1 after Register")
	}
	if _, ok := r.Resolve(tbl.URI()); !ok {
		t.Fatal("Resolve failed")
	}
	if _, ok := r.Resolve("other"); ok {
		t.Fatal("Resolve found unregistered URI")
	}
	if _, err := r.ResolveVersion(tbl.URI(), "1"); err != nil {
		t.Fatalf("ResolveVersion: %v", err)
	}
	if _, err := r.ResolveVersion(tbl.URI(), "2"); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("ResolveVersion stale = %v, want ErrVersionMismatch", err)
	}
	if _, err := r.ResolveVersion("other", "1"); err == nil {
		t.Fatal("ResolveVersion accepted unknown URI")
	}
	uris := r.URIs()
	if len(uris) != 1 || uris[0] != tbl.URI() {
		t.Fatalf("URIs = %v", uris)
	}
}

// TestRegistryNumbersTables: every registered table gets a number of its
// own, a replacement included, whose predecessor's number is retired, so
// that an index resolved against one table can never address another.
func TestRegistryNumbersTables(t *testing.T) {
	r := NewRegistry()
	v1 := MustEncode(mediaClassified(t), DefaultParams)
	r.Register(v1)
	before := r.Tables()
	got, n1, ok := before.Resolve(v1.URI())
	if !ok || got != v1 || n1 == 0 || before.Numbered(n1) != v1 {
		t.Fatalf("Resolve = (%p, %d, %v), Numbered(%d) = %p; want table %p under a nonzero number", got, n1, ok, n1, before.Numbered(n1), v1)
	}
	if _, n, ok := before.Resolve("other"); ok || n != 0 || before.Numbered(0) != nil {
		t.Fatalf("an unregistered URI resolved to number %d (%v); number 0 must stand for no table", n, ok)
	}
	v2 := MustEncode(mediaClassified(t), DefaultParams)
	r.Register(v2)
	after := r.Tables()
	got, n2, _ := after.Resolve(v1.URI())
	if got != v2 || n2 == n1 || after.Numbered(n2) != v2 {
		t.Fatalf("after the replacement Resolve = (%p, %d); want the new table under a new number (old %d)", got, n2, n1)
	}
	if after.Numbered(n1) != nil {
		t.Fatal("the replaced table is still reachable under its retired number")
	}
	if before.Numbered(n1) != v1 || before.Numbered(n2) != nil || r.Len() != 1 {
		t.Fatal("Register changed a Tables value a reader already held")
	}
	if i, ok := v2.Index("Film"); !ok {
		t.Fatal("Index does not resolve a member name")
	} else if j, _ := v2.Index("Movie"); i != j {
		t.Fatalf("equivalent classes resolve to indices %d and %d", i, j)
	}
	if _, ok := v2.DistanceAt(0, v2.NumConcepts()); ok {
		t.Fatal("DistanceAt matched an index outside the table")
	}
}

// TestRegistryConcurrentRegisterResolve runs readers against a writer that
// keeps replacing a table; under -race it is the check that Register no
// longer needs to be kept away from Resolve by the caller.
func TestRegistryConcurrentRegisterResolve(t *testing.T) {
	r := NewRegistry()
	tables := []*Table{MustEncode(mediaClassified(t), DefaultParams), MustEncode(mediaClassified(t), DefaultParams)}
	r.Register(tables[0])
	uri := tables[0].URI()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts := r.Tables()
				tbl, n, ok := ts.Resolve(uri)
				if !ok || tbl == nil || ts.Numbered(n) != tbl {
					t.Errorf("Resolve = (%p, %d, %v), Numbered = %p: one state disagrees with itself", tbl, n, ok, ts.Numbered(n))
					return
				}
				if d, ok := tbl.Distance("DigitalResource", "Film"); !ok || d != 2 {
					t.Errorf("Distance(DigitalResource, Film) = (%d, %v)", d, ok)
					return
				}
				r.URIs()
				r.Len()
			}
		}()
	}
	for i := 0; i < 500; i++ {
		r.Register(tables[i%2])
	}
	close(stop)
	readers.Wait()
}

// randomHierarchy builds a random DAG ontology with n classes: class i picks
// up to 3 parents among classes [0, i), and a few random equivalences.
func randomHierarchy(rng *rand.Rand, n int) *ontology.Ontology {
	o := ontology.New("http://rand.example/ont", "1")
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("C%03d", i)
	}
	for i := 0; i < n; i++ {
		var c ontology.Class
		c.Name = names[i]
		if i > 0 {
			nparents := rng.Intn(3)
			if rng.Intn(4) > 0 && nparents == 0 {
				nparents = 1 // bias toward connected hierarchies
			}
			seen := map[int]bool{}
			for j := 0; j < nparents; j++ {
				p := rng.Intn(i)
				if !seen[p] {
					seen[p] = true
					c.SubClassOf = append(c.SubClassOf, names[p])
				}
			}
		}
		if i > 1 && rng.Intn(10) == 0 {
			c.EquivalentTo = append(c.EquivalentTo, names[rng.Intn(i)])
		}
		o.MustAddClass(c)
	}
	return o
}

// TestPropertySubsumptionEquivalence is the core invariant of the encoding:
// for random hierarchies, interval-based subsumption agrees exactly with
// reasoner-based subsumption for every concept pair.
func TestPropertySubsumptionEquivalence(t *testing.T) {
	prop := func(seed int64, sz uint8) bool {
		n := int(sz%40) + 2
		rng := rand.New(rand.NewSource(seed))
		o := randomHierarchy(rng, n)
		cl, err := ontology.Classify(o)
		if err != nil {
			return false
		}
		tbl, err := Encode(cl, DefaultParams)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := fmt.Sprintf("C%03d", i), fmt.Sprintf("C%03d", j)
				if tbl.Subsumes(a, b) != cl.Subsumes(a, b) {
					t.Logf("seed=%d n=%d: disagreement on (%s,%s)", seed, n, a, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDistanceEquivalence checks that encoded level distances agree
// with classified ones on random hierarchies.
func TestPropertyDistanceEquivalence(t *testing.T) {
	prop := func(seed int64, sz uint8) bool {
		n := int(sz%30) + 2
		rng := rand.New(rand.NewSource(seed))
		cl, err := ontology.Classify(randomHierarchy(rng, n))
		if err != nil {
			return false
		}
		tbl, err := Encode(cl, DefaultParams)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := fmt.Sprintf("C%03d", i), fmt.Sprintf("C%03d", j)
				gd, gok := tbl.Distance(a, b)
				wd, wok := cl.Distance(a, b)
				if gd != wd || gok != wok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyIntervalsNestOrDisjoint: primary intervals of any two concepts
// either nest or are disjoint — partial overlap would break containment
// reasoning.
func TestPropertyIntervalsNestOrDisjoint(t *testing.T) {
	prop := func(seed int64, sz uint8) bool {
		n := int(sz%40) + 2
		rng := rand.New(rand.NewSource(seed))
		cl, err := ontology.Classify(randomHierarchy(rng, n))
		if err != nil {
			return false
		}
		tbl, err := Encode(cl, DefaultParams)
		if err != nil {
			return false
		}
		var prims []Interval
		seen := map[Interval]bool{}
		for i := 0; i < n; i++ {
			c, ok := tbl.Code(fmt.Sprintf("C%03d", i))
			if !ok {
				return false
			}
			if !seen[c.Primary] {
				seen[c.Primary] = true
				prims = append(prims, c.Primary)
			}
		}
		for i, a := range prims {
			for j, b := range prims {
				if i == j {
					continue
				}
				if a.Overlaps(b) && !a.Contains(b) && !b.Contains(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeepChainEncodable(t *testing.T) {
	// A 60-level chain must still produce strictly positive widths.
	o := ontology.New("u", "1")
	o.MustAddClass(ontology.Class{Name: "C0"})
	for i := 1; i < 60; i++ {
		o.MustAddClass(ontology.Class{
			Name:       fmt.Sprintf("C%d", i),
			SubClassOf: []string{fmt.Sprintf("C%d", i-1)},
		})
	}
	tbl := MustEncode(ontology.MustClassify(o), DefaultParams)
	s := tbl.Stats()
	if s.MinWidth <= 0 {
		t.Fatalf("MinWidth = %v at depth %d", s.MinWidth, s.MaxDepth)
	}
	if !tbl.Subsumes("C0", "C59") {
		t.Fatal("chain top must subsume bottom")
	}
	if d, ok := tbl.Distance("C0", "C59"); !ok || d != 59 {
		t.Fatalf("Distance(C0,C59) = (%d,%v), want (59,true)", d, ok)
	}
}

func TestWideFanoutEncodable(t *testing.T) {
	// 1000 siblings under one parent: the paper quotes >1000 first-level
	// entries for p=2, k=5 on 64-bit doubles.
	o := ontology.New("u", "1")
	o.MustAddClass(ontology.Class{Name: "Root"})
	for i := 0; i < 1000; i++ {
		o.MustAddClass(ontology.Class{
			Name:       fmt.Sprintf("C%d", i),
			SubClassOf: []string{"Root"},
		})
	}
	tbl := MustEncode(ontology.MustClassify(o), DefaultParams)
	if s := tbl.Stats(); s.MinWidth <= 0 {
		t.Fatalf("MinWidth = %v", s.MinWidth)
	}
	for _, n := range []string{"C0", "C500", "C999"} {
		if !tbl.Subsumes("Root", n) {
			t.Fatalf("Root must subsume %s", n)
		}
		if tbl.Subsumes(n, "Root") {
			t.Fatalf("%s must not subsume Root", n)
		}
	}
	if tbl.Subsumes("C0", "C999") {
		t.Fatal("siblings must not subsume each other")
	}
}

// TestPropertySignatureNecessary: whenever DistanceAt(a, b) finds a
// distance, a's Self bit is in b's Up and b's is in a's Down — on tables
// of up to 32 concepts, where every concept owns a bit of its own, and on
// larger ones, where bits are shared — and a table read back by
// UnmarshalTable carries the same signatures.
func TestPropertySignatureNecessary(t *testing.T) {
	prop := func(seed int64, sz uint8) bool {
		n := int(sz%80) + 2
		rng := rand.New(rand.NewSource(seed))
		cl, err := ontology.Classify(randomHierarchy(rng, n))
		if err != nil {
			return false
		}
		tbl, err := Encode(cl, DefaultParams)
		if err != nil {
			return false
		}
		data, err := MarshalTable(tbl)
		if err != nil {
			return false
		}
		back, err := UnmarshalTable(data)
		if err != nil {
			return false
		}
		concepts := tbl.NumConcepts()
		var owned uint32
		for a := 0; a < concepts; a++ {
			sa := tbl.SignatureAt(a)
			if back.SignatureAt(a) != sa {
				t.Logf("seed=%d n=%d: concept %d has signature %+v, read back %+v", seed, n, a, sa, back.SignatureAt(a))
				return false
			}
			if concepts <= 32 && owned&sa.Self != 0 {
				t.Logf("seed=%d n=%d: concept %d shares its bit in a table of %d concepts", seed, n, a, concepts)
				return false
			}
			owned |= sa.Self
			for b := 0; b < concepts; b++ {
				sb := tbl.SignatureAt(b)
				if _, ok := tbl.DistanceAt(a, b); ok && (sa.Self&^sb.Up != 0 || sb.Self&^sa.Down != 0) {
					t.Logf("seed=%d n=%d: %d subsumes %d but the signatures %+v, %+v rule it out", seed, n, a, b, sa, sb)
					return false
				}
			}
		}
		return tbl.SignatureAt(-1) == Signature{} && tbl.SignatureAt(concepts) == Signature{}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
