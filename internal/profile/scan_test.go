package profile

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"sariadne/internal/ontology"
)

// plainRequest is the benchmark's request shape: one required capability,
// category plus three inputs and two outputs, as Marshal writes it.
func plainRequest(t testing.TB) []byte {
	ref := func(name string) ontology.Ref {
		return ontology.Ref{Ontology: "http://bench.example/ont/o07", Name: name}
	}
	doc, err := Marshal(&Service{
		Name: "req0042", Provider: "bench-client",
		Required: []*Capability{{
			Name: "want", Category: ref("C12"),
			Inputs:  []ontology.Ref{ref("C3"), ref("C17"), ref("C30")},
			Outputs: []ontology.Ref{ref("C8"), ref("C21")},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// declined is one document per reason the scanner has to hand a document
// over, each of which the generic decoder accepts.
var declined = []struct{ reason, doc string }{
	{"entity in attribute", `<service name="a&amp;b"><provided name="c" category="u#C"/></service>`},
	{"character reference in text", `<service name="s"><provided name="c" category="u#C"><input>u#&#73;</input></provided></service>`},
	{"comment splitting a text node", `<service name="s"><provided name="c" category="u#C"><input>u#<!-- x -->I</input></provided></service>`},
	{"comment between elements", `<service name="s"><!-- x --><provided name="c" category="u#C"/></service>`},
	{"CDATA", `<service name="s"><provided name="c" category="u#C"><input><![CDATA[u#I]]></input></provided></service>`},
	{"processing instruction", `<?xml version="1.0"?><service name="s"><provided name="c" category="u#C"/></service>`},
	{"DOCTYPE", `<!DOCTYPE service><service name="s"><provided name="c" category="u#C"/></service>`},
	{"carriage return", "<service name=\"s\">\r\n<provided name=\"c\" category=\"u#C\"/>\r\n</service>"},
	{"single-quoted attribute", `<service name='s'><provided name="c" category="u#C"/></service>`},
	{"duplicate attribute", `<service name="s" name="t"><provided name="c" category="u#C"/></service>`},
	{"unknown attribute", `<service name="s" lang="en"><provided name="c" category="u#C"/></service>`},
	{"attribute on a text element", `<service name="s"><provided name="c" category="u#C"><input kind="x">u#I</input></provided></service>`},
	{"attributes not separated", `<service name="s"provider="p"><provided name="c" category="u#C"/></service>`},
	{"default xmlns", `<service xmlns="http://amigo.example/ns" name="s"><provided name="c" category="u#C"/></service>`},
	{"prefixed element", `<a:service xmlns:a="http://amigo.example/ns" name="s"><a:provided name="c" category="u#C"/></a:service>`},
	{"prefixed attribute", `<service xml:lang="en" name="s"><provided name="c" category="u#C"/></service>`},
	{"unknown element", `<service name="s"><documentation/><provided name="c" category="u#C"/></service>`},
	{"element inside a text element", `<service name="s"><provided name="c" category="u#C"><input>u#I<b/></input></provided></service>`},
	{"process model", `<service name="s"><required name="r" category="u#C"/><process><invoke capability="r"/></process></service>`},
	{"text between elements", `<service name="s">note<provided name="c" category="u#C"/></service>`},
	{"text before the root", `note<service name="s"><provided name="c" category="u#C"/></service>`},
	{"trailing bytes", `<service name="s"><provided name="c" category="u#C"/></service><!-- bye -->`},
	{"non-ASCII", `<service name="café"><provided name="c" category="u#C"/></service>`},
	{"tab in attribute", "<service name=\"a\tb\"><provided name=\"c\" category=\"u#C\"/></service>"},
	{"'>' in text", `<service name="s"><provided name="c" category="u#C"><input>u>v#I</input></provided></service>`},
	{"padded QoS number", `<service name="s"><provided name="c" category="u#C"><qos name="l" value=" 5 "/></provided></service>`},
	{"content in an empty element", `<service name="s"><provided name="c" category="u#C"><qos name="l" value="5">ms</qos></provided></service>`},
}

// accepted are plain documents in shapes Marshal does not write.
var accepted = []string{
	`<service name="s"/>`,
	"\n\t <service name=\"s\" ></service >\n",
	`<service name="s"><provided name="c" category="u#C"/></service>`,
	`<service provider="p" name="s"><required name="r" category="u#C"><output>u#O</output></required><provided name="c" category="u#C"><property>q#P</property><input> u#I </input><property>q#Q</property></provided></service>`,
	`<service name="s"><codeVersion ontology="u" version="1"/><codeVersion version="2" ontology="u"></codeVersion><codeVersion/><provided name = "c" category= "u#C"><qos name="l" value="1e3"/><qos name="b"/><qos name="z" value=""></qos><qosRequire name="l" max="5"/><qosRequire name="b" min="1" max="Inf"/><qosRequire name="n"> </qosRequire></provided></service>`,
	`<service name="it's > fine"><provided name="c" category="a#b#C"><input>u#I#J</input></provided></service>`,
}

// rejected documents are in error for both decoders, so the scanner has
// to decline them and leave the error text to the generic one.
var rejected = []string{
	``,
	`<service`,
	`<service name="s">`,
	`<service name="s"></servic>`,
	`<service name="s"></service`,
	`<advert name="s"/>`,
	`<service/>`,
	`<service name="s"><provided name="c"/></service>`,
	`<service name="s"><provided name="c" category="noref"/></service>`,
	`<service name="s"><provided name="c" category="u#C"><input/></provided></service>`,
	`<service name="s"><provided name="c" category="u#C"><input>u#</input></provided></service>`,
	`<service name="s"><provided name="c" category="u#C"/><required name="c" category="u#C"/></service>`,
	`<service name="s"><provided name="c" category="u#C"><qos name="l" value="fast"/></provided></service>`,
	`<service name="s"><provided name="c" category="u#C"><qosRequire name="l" min="9" max="1"/></provided></service>`,
	`<service name="s"><provided name="c" category="u#C"><qosRequire name="l" min="0x"/></provided></service>`,
	`<service name="s"><provided name="c" category="u#C"></required></service>`,
	"<service name=\"s\x00\"/>",
	`<service name="a<b"/>`,
	`<service name="s" / >`,
	`<1service name="s"/>`,
}

// floats returns the bit patterns of a description's QoS numbers and
// zeroes the ones that are NaN — the unbounded side of a constraint —
// which reflect.DeepEqual would otherwise hold unequal to themselves.
func floats(s *Service) []uint64 {
	var bits []uint64
	note := func(f *float64) {
		bits = append(bits, math.Float64bits(*f))
		if math.IsNaN(*f) {
			*f = 0
		}
	}
	for _, list := range [][]*Capability{s.Provided, s.Required} {
		for _, c := range list {
			for i := range c.QoSProvided {
				note(&c.QoSProvided[i].Value)
			}
			for i := range c.QoSRequired {
				note(&c.QoSRequired[i].Min)
				note(&c.QoSRequired[i].Max)
			}
		}
	}
	return bits
}

// checkAgainstGeneric is the differential property: the scanner declines
// or returns exactly what the generic decoder returns without error, and
// Unmarshal returns what the generic decoder returns, error text
// included. It reports whether the scanner took the document.
func checkAgainstGeneric(t testing.TB, data []byte) bool {
	t.Helper()
	want, wantErr := UnmarshalGeneric(data)
	got, err := Unmarshal(data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("Unmarshal error %v, generic decoder's %v\n%q", err, wantErr, data)
	}
	scanned, took := scanService(string(data))
	if took && wantErr != nil {
		t.Fatalf("scanner accepted what the generic decoder rejects (%v)\n%q", wantErr, data)
	}
	if wantErr != nil {
		return false
	}
	wantBits := floats(want)
	for _, have := range []*Service{got, scanned} {
		if have == nil {
			continue // declined
		}
		if bits := floats(have); !reflect.DeepEqual(bits, wantBits) || !reflect.DeepEqual(have, want) {
			t.Fatalf("decoders disagree\nscanner: %+v\ngeneric: %+v\n%q", have, want, data)
		}
	}
	return took
}

// corpus is every document at hand: the testdata files (two of them are
// internal/gen's, which this package cannot import: gen imports it), the
// paper's fixtures, the benchmark's request and the hand-written shapes.
func corpus(t testing.TB) (plain, other [][]byte) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.xml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(f, "ontology") {
			other = append(other, data) // not Amigo-S at all
		} else {
			plain = append(plain, data)
		}
	}
	for _, s := range []*Service{WorkstationService(), PDAService()} {
		doc, err := Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		plain = append(plain, doc)
	}
	plain = append(plain, plainRequest(t))
	for _, doc := range accepted {
		plain = append(plain, []byte(doc))
	}
	for _, d := range declined {
		other = append(other, []byte(d.doc))
	}
	for _, doc := range rejected {
		other = append(other, []byte(doc))
	}
	return plain, other
}

func TestScannerTakesPlainDocuments(t *testing.T) {
	plain, other := corpus(t)
	for _, doc := range plain {
		if !checkAgainstGeneric(t, doc) {
			t.Errorf("scanner declined a plain document:\n%s", doc)
		}
	}
	for _, doc := range other {
		if checkAgainstGeneric(t, doc) {
			t.Errorf("scanner took a document it has to decline:\n%s", doc)
		}
	}
}

// TestDeclinedDocumentsStillDecode: each decline reason costs one generic
// parse, counted, and nothing else.
func TestDeclinedDocumentsStillDecode(t *testing.T) {
	for _, d := range declined {
		before := parseGenericTotal.Value()
		svc, err := Unmarshal([]byte(d.doc))
		if err != nil || svc == nil {
			t.Errorf("%s: %v", d.reason, err)
		}
		if n := parseGenericTotal.Value() - before; n != 1 {
			t.Errorf("%s: profile_parse_generic_total moved by %d, want 1", d.reason, n)
		}
	}
	before := parseGenericTotal.Value()
	if _, err := Unmarshal(plainRequest(t)); err != nil {
		t.Fatal(err)
	}
	if n := parseGenericTotal.Value() - before; n != 0 {
		t.Errorf("a plain document moved profile_parse_generic_total by %d", n)
	}
}

// TestUnmarshalStringSharesTheDocument holds the two entry points to one
// reading and to their ownership contracts: UnmarshalString answers what
// Unmarshal answers on every document at hand, error text included; the
// fields UnmarshalString returns for a plain document point into it, so
// holding both costs the bytes once; and what Unmarshal returns survives
// the caller overwriting the bytes it passed.
func TestUnmarshalStringSharesTheDocument(t *testing.T) {
	plain, other := corpus(t)
	for _, data := range append(plain, other...) {
		doc := string(data)
		want, wantErr := Unmarshal(data)
		got, err := UnmarshalString(doc)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("UnmarshalString error %v, Unmarshal's %v\n%q", err, wantErr, doc)
		}
		if err != nil {
			continue
		}
		agree := func(when string) {
			t.Helper()
			if !reflect.DeepEqual(floats(got), floats(want)) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: UnmarshalString and Unmarshal disagree\nstring: %+v\nbytes:  %+v\n%q", when, got, want, doc)
			}
		}
		agree("as parsed")
		for i := range data {
			data[i] = 'x'
		}
		agree("after the caller overwrote its bytes")
	}
	// One plain document, by address: the name is the document's own bytes.
	doc := string(plainRequest(t))
	svc, err := UnmarshalString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if at := strings.Index(doc, svc.Name); unsafe.StringData(svc.Name) != unsafe.StringData(doc[at:]) {
		t.Error("UnmarshalString copied the service name out of the document")
	}
}

// TestUnmarshalAllocs is the guard that does not depend on the host's
// speed: the benchmark-shaped request cost 115 allocations through
// encoding/xml.
func TestUnmarshalAllocs(t *testing.T) {
	doc := plainRequest(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Unmarshal(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 30 {
		t.Errorf("Unmarshal of a plain request: %.0f allocations, want at most 30", allocs)
	}
}

// FuzzUnmarshalEqualsGeneric holds the scanner to its oracle on arbitrary
// bytes: it never panics, never accepts what the generic decoder rejects,
// and never reads a document differently.
func FuzzUnmarshalEqualsGeneric(f *testing.F) {
	plain, other := corpus(f)
	for _, doc := range append(plain, other...) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstGeneric(t, data)
	})
}

func BenchmarkUnmarshal(b *testing.B) {
	doc := plainRequest(b)
	for _, bc := range []struct {
		name string
		fn   func([]byte) (*Service, error)
	}{{"scanner", Unmarshal}, {"generic", UnmarshalGeneric}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.fn(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
