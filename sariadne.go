// Package sariadne is a from-scratch reproduction of "Efficient Semantic
// Service Discovery in Pervasive Computing Environments" (Ben Mokhtar,
// Kaul, Georgantas, Issarny — Middleware 2006): the S-Ariadne semantic
// service discovery protocol together with every substrate it builds on.
//
// The package is a facade over the internal subsystems:
//
//   - ontologies: an OWL-subset model with XML serialization,
//     classification (subsumption reasoning) and the Constantinescu–
//     Faltings interval encoding that reduces runtime reasoning to
//     numeric comparisons (paper Section 3.2);
//   - Amigo-S service profiles: multi-capability semantic service
//     descriptions (Section 2.2);
//   - the Match relation and SemanticDistance scoring (Section 2.3);
//   - semantic directories that classify capability advertisements into
//     DAGs indexed by ontology sets (Section 3.3);
//   - the S-Ariadne protocol: elected directories over a (simulated)
//     MANET, Bloom-filter content summaries and selective query
//     forwarding (Section 4).
//
// # Quick start
//
//	sys := sariadne.NewSystem()
//	_ = sys.AddOntologyXML(mediaOntologyXML)
//	dir := sys.NewDirectory()
//	_ = dir.Register(myService)
//	results := dir.Query(myRequest)
//
// See examples/ for full runnable programs, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for the reproduction of the paper's
// measurements.
package sariadne

import (
	"io"

	"sariadne/internal/codes"
	"sariadne/internal/discovery"
	"sariadne/internal/election"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/registry"
	"sariadne/internal/simnet"
)

// Re-exported core types. The aliases make the public API self-contained:
// downstream code imports only this package.
type (
	// Ref is a fully qualified concept reference (ontology URI + name).
	Ref = ontology.Ref
	// Ontology is a parsed OWL-subset ontology.
	Ontology = ontology.Ontology
	// Class declares a named concept inside an ontology.
	Class = ontology.Class
	// Property declares a named relationship inside an ontology.
	Property = ontology.Property
	// Service is an Amigo-S service description.
	Service = profile.Service
	// Capability is a named semantic functionality of a service.
	Capability = profile.Capability
	// Result is a directory query answer.
	Result = registry.Result
	// Hit is a protocol-level discovery answer.
	Hit = discovery.Hit
	// NodeID identifies a node in a network.
	NodeID = simnet.NodeID
	// EncodingParams are the interval-subdivision constants (p, k).
	EncodingParams = codes.Params
	// ElectionConfig tunes directory self-deployment.
	ElectionConfig = election.Config
	// QoSValue is a provided non-functional guarantee of a capability.
	QoSValue = profile.QoSValue
	// QoSConstraint is a required acceptable range for a QoS dimension.
	QoSConstraint = profile.QoSConstraint
)

// UnboundedQoS is the sentinel for one-sided QoS constraints.
func UnboundedQoS() float64 { return profile.Unbounded() }

// DefaultEncodingParams are the constants the paper evaluates (p=2, k=5).
var DefaultEncodingParams = codes.DefaultParams

// NewOntology starts an empty ontology with the given URI and version.
func NewOntology(uri, version string) *Ontology { return ontology.New(uri, version) }

// ParseOntology reads an ontology XML document.
func ParseOntology(r io.Reader) (*Ontology, error) { return ontology.Decode(r) }

// MarshalOntology renders an ontology as XML.
func MarshalOntology(o *Ontology) ([]byte, error) { return ontology.Marshal(o) }

// ParseService reads an Amigo-S service XML document.
func ParseService(r io.Reader) (*Service, error) { return profile.Decode(r) }

// MarshalService renders a service description as XML.
func MarshalService(s *Service) ([]byte, error) { return profile.Marshal(s) }

// System holds the ontology knowledge of a deployment: classified,
// interval-encoded ontologies shared by matchers, directories and
// protocol nodes. Populate it during bootstrap (AddOntology*) before
// creating directories; the paper performs all encoding offline. A
// directory resolves an advertisement's concept names against the encoded
// ontologies when the advertisement is registered: what it stored before a
// later AddOntology of an ontology it uses goes unmatched on that ontology
// until it is registered again.
type System struct {
	params codes.Params
	reg    *codes.Registry
}

// NewSystem returns a System with the paper's default encoding parameters.
func NewSystem() *System { return NewSystemWithParams(DefaultEncodingParams) }

// NewSystemWithParams returns a System with custom interval-subdivision
// constants.
func NewSystemWithParams(params codes.Params) *System {
	return &System{params: params, reg: codes.NewRegistry()}
}

// AddOntology classifies and encodes an ontology into the system.
func (s *System) AddOntology(o *Ontology) error {
	cl, err := ontology.Classify(o)
	if err != nil {
		return err
	}
	table, err := codes.Encode(cl, s.params)
	if err != nil {
		return err
	}
	s.reg.Register(table)
	return nil
}

// AddOntologyXML parses, classifies and encodes an ontology document.
func (s *System) AddOntologyXML(r io.Reader) error {
	o, err := ontology.Decode(r)
	if err != nil {
		return err
	}
	return s.AddOntology(o)
}

// Ontologies lists the URIs of encoded ontologies.
func (s *System) Ontologies() []string { return s.reg.URIs() }

// Match reports whether the provided capability can substitute for the
// requested one, and at which semantic distance, using encoded matching.
func (s *System) Match(provided, requested *Capability) (distance int, ok bool) {
	return match.SemanticDistance(match.NewCodeMatcher(s.reg), provided, requested)
}

// Subsumes reports whether concept a subsumes concept b by numeric code
// comparison. Unknown concepts never subsume.
func (s *System) Subsumes(a, b Ref) bool {
	if a.Ontology != b.Ontology {
		return false
	}
	t, ok := s.reg.Resolve(a.Ontology)
	if !ok {
		return false
	}
	return t.Subsumes(a.Name, b.Name)
}

// ConceptDistance returns the paper's d(a, b): hierarchy levels from a
// down to b when a subsumes b, ok=false otherwise.
func (s *System) ConceptDistance(a, b Ref) (int, bool) {
	if a.Ontology != b.Ontology {
		return 0, false
	}
	t, ok := s.reg.Resolve(a.Ontology)
	if !ok {
		return 0, false
	}
	return t.Distance(a.Name, b.Name)
}

// Directory is a local semantic service directory: advertisements are
// classified into capability DAGs and queries resolved by root probing,
// exactly as an S-Ariadne directory node does for its vicinity.
type Directory struct {
	dir *registry.Directory
}

// NewDirectory creates an empty directory bound to the system's encoded
// ontologies.
func (s *System) NewDirectory() *Directory {
	return &Directory{dir: registry.NewDirectory(match.NewCodeMatcher(s.reg))}
}

// Register classifies a service's provided capabilities into the
// directory. Re-registering a service name replaces its advertisement.
func (d *Directory) Register(svc *Service) error { return d.dir.Register(svc) }

// Deregister removes a service's advertisements.
func (d *Directory) Deregister(service string) bool { return d.dir.Deregister(service) }

// Query returns the advertisements matching the required capability,
// best (smallest semantic distance) first.
func (d *Directory) Query(req *Capability) []Result { return d.dir.Query(req) }

// Best returns the single best match, if any.
func (d *Directory) Best(req *Capability) (Result, bool) { return d.dir.Best(req) }

// NumCapabilities returns the number of stored advertisements.
func (d *Directory) NumCapabilities() int { return d.dir.NumCapabilities() }

// NumGraphs returns the number of capability DAGs (diagnostics).
func (d *Directory) NumGraphs() int { return d.dir.NumGraphs() }

// Snapshot renders the graph structure for inspection.
func (d *Directory) Snapshot() string { return d.dir.Snapshot() }

// Explain reports the detailed pairing behind Match(provided, requested).
func (s *System) Explain(provided, requested *Capability) match.Report {
	return match.Explain(match.NewCodeMatcher(s.reg), provided, requested)
}

// MatchReport re-exports the detailed match explanation type.
type MatchReport = match.Report
