package profile

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"sariadne/internal/ontology"
	"sariadne/internal/process"
)

func TestFixtureServicesValid(t *testing.T) {
	for _, s := range []*Service{WorkstationService(), PDAService()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	for _, o := range []*ontology.Ontology{MediaOntology(), ServersOntology()} {
		if err := o.Validate(); err != nil {
			t.Errorf("ontology %s: %v", o.URI, err)
		}
	}
}

func TestCapabilityValidate(t *testing.T) {
	valid := Capability{
		Name:     "C",
		Category: ontology.Ref{Ontology: "u", Name: "Cat"},
		Inputs:   []ontology.Ref{{Ontology: "u", Name: "In"}},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid capability rejected: %v", err)
	}

	tests := []struct {
		name    string
		mutate  func(*Capability)
		wantErr error
	}{
		{"no name", func(c *Capability) { c.Name = "" }, ErrNoName},
		{"no category", func(c *Capability) { c.Category = ontology.Ref{} }, ErrNoCategory},
		{"bad input ref", func(c *Capability) { c.Inputs = []ontology.Ref{{Name: "x"}} }, ErrBadRef},
		{"bad output ref", func(c *Capability) { c.Outputs = []ontology.Ref{{Ontology: "u"}} }, ErrBadRef},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := *valid.Clone()
			tt.mutate(&c)
			if err := c.Validate(); !errors.Is(err, tt.wantErr) {
				t.Fatalf("got %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestServiceValidate(t *testing.T) {
	s := WorkstationService()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Name = ""
	if err := s.Validate(); !errors.Is(err, ErrNoName) {
		t.Fatalf("got %v, want ErrNoName", err)
	}
	s = WorkstationService()
	s.Provided = append(s.Provided, s.Provided[0].Clone())
	if err := s.Validate(); !errors.Is(err, ErrDuplicateCapability) {
		t.Fatalf("got %v, want ErrDuplicateCapability", err)
	}
}

func TestPropertySetIncludesCategory(t *testing.T) {
	c := WorkstationService().Provided[0]
	props := c.PropertySet()
	if len(props) != 1 || props[0] != c.Category {
		t.Fatalf("PropertySet = %v", props)
	}
	c.Properties = append(c.Properties, ontology.Ref{Ontology: "u", Name: "Fast"})
	if got := c.PropertySet(); len(got) != 2 {
		t.Fatalf("PropertySet = %v, want category + 1", got)
	}
}

// TestOntologyKeyTable pins the ontology set and its key form: sorted,
// de-duplicated, NUL-joined, whatever order and however often the
// capability's references name a URI.
func TestOntologyKeyTable(t *testing.T) {
	ref := func(uri, name string) ontology.Ref { return ontology.Ref{Ontology: uri, Name: name} }
	for _, tc := range []struct {
		name string
		cap  Capability
		uris []string
		key  string
	}{
		{name: "empty", cap: Capability{Name: "c"}, uris: []string{}, key: ""},
		{name: "single", cap: Capability{Category: ref("u:a", "X")}, uris: []string{"u:a"}, key: "u:a"},
		{
			name: "repeated URI",
			cap: Capability{Category: ref("u:a", "X"), Inputs: []ontology.Ref{ref("u:a", "Y"), ref("u:a", "Z")},
				Outputs: []ontology.Ref{ref("u:a", "X")}},
			uris: []string{"u:a"}, key: "u:a",
		},
		{
			name: "unsorted across fields",
			cap: Capability{Category: ref("u:c", "X"), Inputs: []ontology.Ref{ref("u:b", "Y")},
				Outputs: []ontology.Ref{ref("u:a", "Z"), ref("u:c", "W")}, Properties: []ontology.Ref{ref("u:b", "P")}},
			uris: []string{"u:a", "u:b", "u:c"}, key: "u:a\x00u:b\x00u:c",
		},
		{
			name: "blank ontology skipped",
			cap:  Capability{Category: ref("u:a", "X"), Inputs: []ontology.Ref{ref("", "Y")}},
			uris: []string{"u:a"}, key: "u:a",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.cap.Ontologies()
			if got == nil || !slices.Equal(got, tc.uris) {
				t.Fatalf("Ontologies = %#v, want %#v", got, tc.uris)
			}
			if key := tc.cap.OntologyKey(); key != tc.key {
				t.Fatalf("OntologyKey = %q, want %q", key, tc.key)
			}
			if key := OntologySetKey(got); key != tc.key {
				t.Fatalf("OntologySetKey = %q, want %q", key, tc.key)
			}
		})
	}
}

func TestOntologies(t *testing.T) {
	c := WorkstationService().Provided[0]
	uris := c.Ontologies()
	if len(uris) != 2 || uris[0] != MediaOntologyURI || uris[1] != ServersOntologyURI {
		t.Fatalf("Ontologies = %v", uris)
	}
	key := c.OntologyKey()
	if !strings.Contains(key, MediaOntologyURI) || !strings.Contains(key, ServersOntologyURI) {
		t.Fatalf("OntologyKey = %q", key)
	}

	s := WorkstationService()
	if got := s.Ontologies(); len(got) != 2 {
		t.Fatalf("Service.Ontologies = %v", got)
	}
}

func TestCapabilityLookup(t *testing.T) {
	s := WorkstationService()
	if c := s.Capability("SendDigitalStream"); c == nil {
		t.Fatal("SendDigitalStream not found")
	}
	if c := s.Capability("NoSuch"); c != nil {
		t.Fatal("found a missing capability")
	}
}

func TestCapabilityEqual(t *testing.T) {
	a := WorkstationService().Provided[0]
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	// Order-insensitive.
	b.Inputs = append(b.Inputs, ontology.Ref{Ontology: "u", Name: "X"})
	b.Inputs[0], b.Inputs[1] = b.Inputs[1], b.Inputs[0]
	a2 := a.Clone()
	a2.Inputs = append(a2.Inputs, ontology.Ref{Ontology: "u", Name: "X"})
	if !a2.Equal(b) {
		t.Fatal("order-insensitive equality failed")
	}
	if a.Equal(b) {
		t.Fatal("unequal capabilities reported equal")
	}
	c := a.Clone()
	c.Name = "Other"
	if a.Equal(c) {
		t.Fatal("differing names reported equal")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := WorkstationService()
	s.CodeVersions = map[string]string{MediaOntologyURI: "1"}
	cp := s.Clone()
	cp.Provided[0].Inputs[0] = ontology.Ref{Ontology: "u", Name: "Mutated"}
	cp.CodeVersions[MediaOntologyURI] = "2"
	if s.Provided[0].Inputs[0].Name == "Mutated" {
		t.Fatal("Clone shares input slice")
	}
	if s.CodeVersions[MediaOntologyURI] != "1" {
		t.Fatal("Clone shares CodeVersions map")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := WorkstationService()
	s.CodeVersions = map[string]string{
		MediaOntologyURI:   "1",
		ServersOntologyURI: "1",
	}
	s.Required = append(s.Required, PDAService().Required[0].Clone())

	data, err := Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Name != s.Name || back.Provider != s.Provider {
		t.Fatalf("identity mismatch: %+v", back)
	}
	if len(back.Provided) != len(s.Provided) || len(back.Required) != len(s.Required) {
		t.Fatalf("capability counts changed: %d/%d", len(back.Provided), len(back.Required))
	}
	for i := range s.Provided {
		if !back.Provided[i].Equal(s.Provided[i]) {
			t.Errorf("provided[%d] mismatch: %v vs %v", i, back.Provided[i], s.Provided[i])
		}
	}
	if back.CodeVersions[MediaOntologyURI] != "1" {
		t.Errorf("CodeVersions lost: %v", back.CodeVersions)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		doc  string
	}{
		{"garbage", "nope"},
		{"missing name", `<service provider="p"><provided name="c" category="u#C"/></service>`},
		{"bad category ref", `<service name="s"><provided name="c" category="nocat"/></service>`},
		{"bad input ref", `<service name="s"><provided name="c" category="u#C"><input>bad</input></provided></service>`},
		{"missing category", `<service name="s"><provided name="c"/></service>`},
		{"duplicate capability", `<service name="s"><provided name="c" category="u#C"/><provided name="c" category="u#C"/></service>`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(strings.NewReader(tt.doc)); err == nil {
				t.Fatal("Decode accepted invalid document")
			}
		})
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, &Service{}); err == nil {
		t.Fatal("Encode accepted invalid service")
	}
}

func TestStringSummaries(t *testing.T) {
	s := WorkstationService()
	if got := s.String(); !strings.Contains(got, "2 provided") {
		t.Errorf("Service.String = %q", got)
	}
	if got := s.Provided[0].String(); !strings.Contains(got, "SendDigitalStream") {
		t.Errorf("Capability.String = %q", got)
	}
}

func TestServiceProcessModel(t *testing.T) {
	svc := PDAService()
	svc.Required = append(svc.Required, &Capability{
		Name:     "GetSubtitles",
		Category: serversRef("DigitalServer"),
		Outputs:  []ontology.Ref{mediaRef("Stream")},
	})
	svc.Process = process.Sequence(
		process.Invoke("GetVideoStream"),
		process.Choice(
			process.Invoke("GetSubtitles"),
			process.Invoke("GetVideoStream"),
		),
	)
	if err := svc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// XML round trip preserves the conversation.
	data, err := Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<process>") {
		t.Fatalf("document missing process:\n%s", data)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Process == nil || back.Process.String() != svc.Process.String() {
		t.Fatalf("process changed: %v vs %v", back.Process, svc.Process)
	}

	// Clone is deep.
	cp := svc.Clone()
	cp.Process.Children[0].Capability = "Mutated"
	if svc.Process.Children[0].Capability == "Mutated" {
		t.Fatal("Clone shares process tree")
	}

	// A process referencing an undeclared capability fails validation.
	svc.Process = process.Invoke("NoSuchRequirement")
	if err := svc.Validate(); err == nil {
		t.Fatal("Validate accepted dangling process reference")
	}
}
