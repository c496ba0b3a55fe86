// Package gen generates evaluation workloads matching the paper's setup:
// random class hierarchies, pools of ontologies (the evaluation uses 22),
// Amigo-S services with a single provided capability each, semantic
// requests derived from stored advertisements, and paired WSDL-style
// descriptions so the syntactic baseline can be driven by the very same
// workload (Figure 10's comparison).
package gen

import (
	"fmt"
	"math/rand"

	"sariadne/internal/codes"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/wsdl"
)

// OntologyConfig shapes one random ontology.
type OntologyConfig struct {
	// URI identifies the ontology.
	URI string
	// Version defaults to "1".
	Version string
	// Classes is the number of classes (the paper's Figure 2 ontology has
	// 99).
	Classes int
	// Properties is the number of properties (39 in Figure 2's ontology).
	Properties int
	// Branching bounds the fan-out of the class tree skeleton; defaults
	// to 4.
	Branching int
	// ExtraParents adds this many additional DAG edges; defaults to
	// Classes/10.
	ExtraParents int
	// Seed drives the layout.
	Seed int64
	// Rand, when non-nil, supplies randomness directly and takes
	// precedence over Seed, letting callers thread one seeded generator
	// through several generation steps.
	Rand *rand.Rand
}

// Ontology builds a random class hierarchy: a tree skeleton (guaranteeing
// connectivity and interesting depth) plus a sprinkling of extra parents
// making it a DAG.
func Ontology(cfg OntologyConfig) *ontology.Ontology {
	if cfg.Version == "" {
		cfg.Version = "1"
	}
	if cfg.Branching <= 0 {
		cfg.Branching = 4
	}
	if cfg.ExtraParents < 0 {
		cfg.ExtraParents = 0
	} else if cfg.ExtraParents == 0 {
		cfg.ExtraParents = cfg.Classes / 10
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	o := ontology.New(cfg.URI, cfg.Version)

	names := make([]string, cfg.Classes)
	for i := range names {
		names[i] = fmt.Sprintf("C%03d", i)
	}
	childCount := make([]int, cfg.Classes)
	for i := 0; i < cfg.Classes; i++ {
		c := ontology.Class{Name: names[i], Label: "class " + names[i]}
		if i > 0 {
			// Pick a parent with remaining fan-out budget, preferring
			// recent classes to grow depth.
			parent := -1
			for attempt := 0; attempt < 8; attempt++ {
				cand := rng.Intn(i)
				if childCount[cand] < cfg.Branching {
					parent = cand
					break
				}
			}
			if parent < 0 {
				parent = 0
			}
			childCount[parent]++
			c.SubClassOf = append(c.SubClassOf, names[parent])
		}
		o.MustAddClass(c)
	}
	// Extra DAG edges: random class gains a second parent that is not a
	// descendant (guaranteed by only linking to lower indices, which the
	// tree construction keeps acyclic).
	for e := 0; e < cfg.ExtraParents && cfg.Classes > 2; e++ {
		child := rng.Intn(cfg.Classes-1) + 1
		parent := rng.Intn(child)
		cl := o.Class(names[child])
		dup := false
		for _, p := range cl.SubClassOf {
			if p == names[parent] {
				dup = true
				break
			}
		}
		if !dup {
			cl.SubClassOf = append(cl.SubClassOf, names[parent])
		}
	}
	for p := 0; p < cfg.Properties; p++ {
		o.AddProperty(ontology.Property{ //nolint:errcheck // names are unique by construction
			Name:   fmt.Sprintf("p%03d", p),
			Domain: names[rng.Intn(cfg.Classes)],
			Range:  names[rng.Intn(cfg.Classes)],
		})
	}
	return o
}

// WorkloadConfig shapes a full evaluation workload.
type WorkloadConfig struct {
	// Ontologies is the size of the ontology pool (the paper uses 22).
	Ontologies int
	// ClassesPerOntology sizes each ontology; defaults to 40.
	ClassesPerOntology int
	// PropertiesPerOntology defaults to ClassesPerOntology/3.
	PropertiesPerOntology int
	// Services is the number of generated service descriptions.
	Services int
	// CapabilitiesPerService defaults to 1, the paper's setting.
	CapabilitiesPerService int
	// InputsPerCapability and OutputsPerCapability default to 3 and 2.
	InputsPerCapability  int
	OutputsPerCapability int
	// CrossOntologyInputs is the percentage of capabilities whose inputs are
	// concepts of the pool's next ontology instead of the capability's own,
	// so that their ontology set has two members. It defaults to 0, the
	// paper's setting: every capability over one ontology.
	CrossOntologyInputs int
	// Seed drives all randomness.
	Seed int64
	// Rand, when non-nil, supplies randomness directly and takes
	// precedence over Seed (the ontologies then draw from the same
	// stream instead of per-ontology derived seeds).
	Rand *rand.Rand
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.Ontologies <= 0 {
		c.Ontologies = 22
	}
	if c.ClassesPerOntology <= 0 {
		c.ClassesPerOntology = 40
	}
	if c.PropertiesPerOntology <= 0 {
		c.PropertiesPerOntology = c.ClassesPerOntology / 3
	}
	if c.CapabilitiesPerService <= 0 {
		c.CapabilitiesPerService = 1
	}
	if c.InputsPerCapability <= 0 {
		c.InputsPerCapability = 3
	}
	if c.OutputsPerCapability <= 0 {
		c.OutputsPerCapability = 2
	}
	return c
}

// Workload bundles everything an experiment needs.
type Workload struct {
	cfg        WorkloadConfig
	rng        *rand.Rand
	Ontologies []*ontology.Ontology
	classified []*ontology.Classified
	// Services are the Amigo-S descriptions.
	Services []*profile.Service
	// ServiceDocs are the serialized XML documents of Services, for
	// experiments that measure parsing.
	ServiceDocs [][]byte
	// Definitions are the paired WSDL-style descriptions of the same
	// services, for the syntactic baseline.
	Definitions []*wsdl.Definition
}

// NewWorkload generates a workload.
func NewWorkload(cfg WorkloadConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	w := &Workload{cfg: cfg, rng: rng}
	for i := 0; i < cfg.Ontologies; i++ {
		oc := OntologyConfig{
			URI:        fmt.Sprintf("http://amigo.example/gen/ont%02d", i),
			Classes:    cfg.ClassesPerOntology,
			Properties: cfg.PropertiesPerOntology,
			Seed:       cfg.Seed + int64(i) + 1,
		}
		if cfg.Rand != nil {
			oc.Rand = rng
		}
		o := Ontology(oc)
		cl, err := ontology.Classify(o)
		if err != nil {
			return nil, fmt.Errorf("gen: classify %s: %w", o.URI, err)
		}
		w.Ontologies = append(w.Ontologies, o)
		w.classified = append(w.classified, cl)
	}
	for s := 0; s < cfg.Services; s++ {
		svc, def, err := w.generateService(s)
		if err != nil {
			return nil, err
		}
		doc, err := profile.Marshal(svc)
		if err != nil {
			return nil, fmt.Errorf("gen: marshal service %d: %w", s, err)
		}
		w.Services = append(w.Services, svc)
		w.ServiceDocs = append(w.ServiceDocs, doc)
		w.Definitions = append(w.Definitions, def)
	}
	return w, nil
}

// MustNewWorkload panics on generation failure; for benchmarks.
func MustNewWorkload(cfg WorkloadConfig) *Workload {
	w, err := NewWorkload(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// randomConcept picks a uniformly random class of ontology oi.
func (w *Workload) randomConcept(oi int) ontology.Ref {
	o := w.Ontologies[oi]
	classes := o.Classes()
	return ontology.Ref{Ontology: o.URI, Name: classes[w.rng.Intn(len(classes))].Name}
}

// generateService builds one service plus its WSDL twin.
func (w *Workload) generateService(index int) (*profile.Service, *wsdl.Definition, error) {
	name := fmt.Sprintf("svc%04d", index)
	svc := &profile.Service{Name: name, Provider: name + "-host"}
	def := &wsdl.Definition{Name: name, TargetNamespace: "http://amigo.example/gen/wsdl/" + name}

	for ci := 0; ci < w.cfg.CapabilitiesPerService; ci++ {
		oi := w.rng.Intn(len(w.Ontologies))
		cap := &profile.Capability{
			Name:     fmt.Sprintf("cap%d", ci),
			Category: w.randomConcept(oi),
		}
		in := oi
		if w.cfg.CrossOntologyInputs > 0 && w.rng.Intn(100) < w.cfg.CrossOntologyInputs {
			in = (oi + 1) % len(w.Ontologies)
		}
		for i := 0; i < w.cfg.InputsPerCapability; i++ {
			cap.Inputs = append(cap.Inputs, w.randomConcept(in))
		}
		for i := 0; i < w.cfg.OutputsPerCapability; i++ {
			cap.Outputs = append(cap.Outputs, w.randomConcept(oi))
		}
		svc.Provided = append(svc.Provided, cap)

		// WSDL twin: one port type per capability. The main operation's
		// message parts mirror the semantic inputs/outputs as named types;
		// per-input accessor operations round the interface out to a
		// realistic size (real WSDL documents carry many operations, and
		// the syntactic baseline pays for comparing all of them).
		inMsg := wsdl.Message{Name: fmt.Sprintf("cap%dIn", ci)}
		for i, ref := range cap.Inputs {
			inMsg.Parts = append(inMsg.Parts, wsdl.Part{Name: fmt.Sprintf("in%d", i), Type: "tns:" + ref.Name})
		}
		outMsg := wsdl.Message{Name: fmt.Sprintf("cap%dOut", ci)}
		for i, ref := range cap.Outputs {
			outMsg.Parts = append(outMsg.Parts, wsdl.Part{Name: fmt.Sprintf("out%d", i), Type: "tns:" + ref.Name})
		}
		def.Messages = append(def.Messages, inMsg, outMsg)
		pt := wsdl.PortType{
			Name: cap.Category.Name + "Port",
			Operations: []wsdl.Operation{
				{Name: cap.Name, Input: inMsg.Name, Output: outMsg.Name},
			},
		}
		for i, ref := range cap.Inputs {
			req := wsdl.Message{
				Name: fmt.Sprintf("cap%dGet%dIn", ci, i),
				Parts: []wsdl.Part{
					{Name: "selector", Type: "xsd:string"},
					{Name: "mode", Type: "xsd:int"},
				},
			}
			res := wsdl.Message{
				Name: fmt.Sprintf("cap%dGet%dOut", ci, i),
				Parts: []wsdl.Part{
					{Name: "value", Type: "tns:" + ref.Name},
					{Name: "status", Type: "xsd:int"},
				},
			}
			def.Messages = append(def.Messages, req, res)
			pt.Operations = append(pt.Operations, wsdl.Operation{
				Name:  fmt.Sprintf("describe%sVariant%d", ref.Name, i),
				Input: req.Name, Output: res.Name,
			})
		}
		def.PortTypes = append(def.PortTypes, pt)
	}
	if err := svc.Validate(); err != nil {
		return nil, nil, fmt.Errorf("gen: service %d invalid: %w", index, err)
	}
	if err := def.Validate(); err != nil {
		return nil, nil, fmt.Errorf("gen: wsdl %d invalid: %w", index, err)
	}
	return svc, def, nil
}

// Registry encodes every ontology of the workload into code tables.
func (w *Workload) Registry(params codes.Params) (*codes.Registry, error) {
	reg := codes.NewRegistry()
	for _, cl := range w.classified {
		t, err := codes.Encode(cl, params)
		if err != nil {
			return nil, err
		}
		reg.Register(t)
	}
	return reg, nil
}

// Classified returns the classified hierarchy for ontology i.
func (w *Workload) Classified(i int) *ontology.Classified { return w.classified[i] }

// Request derives a semantic request from the service at the given index:
// the request asks for that service's first capability, with each concept
// optionally specialized by walking down the hierarchy up to depth levels
// (producing nonzero semantic distances while guaranteeing at least one
// stored match).
func (w *Workload) Request(serviceIndex, depth int) *profile.Capability {
	src := w.Services[serviceIndex].Provided[0]
	req := src.Clone()
	req.Name = "request-" + src.Name
	specialize := func(ref ontology.Ref) ontology.Ref {
		cl := w.classifiedFor(ref.Ontology)
		if cl == nil {
			return ref
		}
		cur, ok := cl.Concept(ref.Name)
		if !ok {
			return ref
		}
		for i := 0; i < depth; i++ {
			kids := cl.Children(cur)
			if len(kids) == 0 {
				break
			}
			cur = kids[w.rng.Intn(len(kids))]
		}
		return ontology.Ref{Ontology: ref.Ontology, Name: cl.CanonicalName(cur)}
	}
	// Inputs the requester offers may be more specific than what the
	// provider expects; outputs and category it expects may be more
	// specific than what the provider offers.
	for i, ref := range req.Inputs {
		req.Inputs[i] = specialize(ref)
	}
	for i, ref := range req.Outputs {
		req.Outputs[i] = specialize(ref)
	}
	req.Category = specialize(req.Category)
	return req
}

// WSDLRequest derives the syntactic request for the service at the given
// index: the exact required interface of its first port type (syntactic
// discovery can only ever ask for exact structure), carrying only the
// messages that interface references.
func (w *Workload) WSDLRequest(serviceIndex int) *wsdl.Definition {
	src := w.Definitions[serviceIndex]
	pt := src.PortTypes[0]
	needed := make(map[string]bool)
	for _, op := range pt.Operations {
		if op.Input != "" {
			needed[op.Input] = true
		}
		if op.Output != "" {
			needed[op.Output] = true
		}
	}
	req := &wsdl.Definition{
		Name:            "request-" + src.Name,
		TargetNamespace: src.TargetNamespace,
		PortTypes:       []wsdl.PortType{pt},
	}
	for _, m := range src.Messages {
		if needed[m.Name] {
			req.Messages = append(req.Messages, m)
		}
	}
	return req
}

func (w *Workload) classifiedFor(uri string) *ontology.Classified {
	for i, o := range w.Ontologies {
		if o.URI == uri {
			return w.classified[i]
		}
	}
	return nil
}

// Fig2Ontology reproduces the measurement ontology of Figure 2: 99 OWL
// classes and 39 properties.
func Fig2Ontology() *ontology.Ontology {
	return Ontology(OntologyConfig{
		URI:        "http://amigo.example/gen/fig2",
		Classes:    99,
		Properties: 39,
		Seed:       2006,
	})
}

// Fig2Capabilities reproduces Figure 2's matching pair: a requested and a
// provided capability with 7 inputs and 3 outputs each, over the Figure 2
// ontology, constructed so that the provided capability matches the
// requested one.
func Fig2Capabilities() (provided, requested *profile.Capability) {
	o := Fig2Ontology()
	cl := ontology.MustClassify(o)
	rng := rand.New(rand.NewSource(2006))

	uri := o.URI
	classes := o.Classes()
	pick := func() (string, int) {
		name := classes[rng.Intn(len(classes))].Name
		idx, _ := cl.Concept(name)
		return name, idx
	}
	specialize := func(idx int) string {
		for i := 0; i < 2; i++ {
			kids := cl.Children(idx)
			if len(kids) == 0 {
				break
			}
			idx = kids[rng.Intn(len(kids))]
		}
		return cl.CanonicalName(idx)
	}

	provided = &profile.Capability{Name: "ProvidedCap"}
	requested = &profile.Capability{Name: "RequestedCap"}
	catName, catIdx := pick()
	provided.Category = ontology.Ref{Ontology: uri, Name: catName}
	requested.Category = ontology.Ref{Ontology: uri, Name: specialize(catIdx)}
	for i := 0; i < 7; i++ {
		name, idx := pick()
		provided.Inputs = append(provided.Inputs, ontology.Ref{Ontology: uri, Name: name})
		requested.Inputs = append(requested.Inputs, ontology.Ref{Ontology: uri, Name: specialize(idx)})
	}
	for i := 0; i < 3; i++ {
		name, idx := pick()
		provided.Outputs = append(provided.Outputs, ontology.Ref{Ontology: uri, Name: name})
		requested.Outputs = append(requested.Outputs, ontology.Ref{Ontology: uri, Name: specialize(idx)})
	}
	return provided, requested
}
