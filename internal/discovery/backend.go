// Package discovery implements the S-Ariadne service discovery protocol
// (Section 4 of the paper): a semi-distributed SDP where elected directory
// nodes cache and classify the service advertisements of their vicinity,
// summarize their content with Bloom filters, and cooperate to answer
// queries across the network — local discovery first, then selective
// forwarding to the peer directories whose summaries may cover the
// request.
//
// The protocol shell is parameterized by a Backend: the semantic backend
// (SemanticBackend, this package) classifies Amigo-S capabilities into
// graphs over encoded ontologies — S-Ariadne proper; the syntactic WSDL
// backend (package ariadne) is the paper's baseline. Figure 10 is exactly
// this pair measured against each other.
package discovery

import (
	"errors"
	"fmt"
	"slices"

	"sariadne/internal/codes"
	"sariadne/internal/match"
	"sariadne/internal/profile"
	"sariadne/internal/registry"
)

// Backend is the pluggable directory store behind a discovery node.
// Implementations must be safe for concurrent use.
type Backend interface {
	// Name identifies the backend for reports ("s-ariadne", "ariadne").
	Name() string
	// Register parses and stores a service advertisement document,
	// returning the service's name.
	Register(doc []byte) (string, error)
	// Deregister removes a previously registered service by name.
	Deregister(service string) bool
	// Resolve is the one place a request document is read: it parses doc
	// once, answers every required capability the stored content can —
	// hits, best first per capability — and says what is left for other
	// directories (Figure 6, step 3). rest is the request restricted to
	// the required capabilities no hit answered: nil when all were, doc
	// itself (the caller's bytes, not a copy) when none were. keys are the
	// distinct Bloom probe keys of rest, sorted, at least one whenever
	// rest is not nil: a peer may hold an answer only if its summary
	// passes one of them.
	Resolve(doc []byte) (hits []Hit, rest []byte, keys []string, err error)
	// Keys returns the summary keys of the stored content — the unit
	// hashed into the directory's Bloom filter.
	Keys() []string
	// Snapshot returns the original advertisement documents by service
	// name, for directory handover (a departing directory transfers its
	// cache to a peer so the vicinity keeps its advertisements).
	Snapshot() map[string][]byte
	// Len returns the number of stored advertisements.
	Len() int
}

// Hit is one discovery answer.
type Hit struct {
	// Service and Capability name the advertisement.
	Service    string
	Capability string
	// Provider is the advertised provider/host.
	Provider string
	// Distance is the semantic distance (0 for syntactic backends).
	Distance int
	// For names the required capability of the request this hit answers.
	For string
	// Directory is filled by the protocol with the answering directory.
	Directory string
}

// String renders the hit compactly.
func (h Hit) String() string {
	return fmt.Sprintf("%s/%s@%d", h.Service, h.Capability, h.Distance)
}

// ErrNoRequiredCapability is returned when a request document carries no
// required capability.
var ErrNoRequiredCapability = errors.New("discovery: request has no required capability")

// SemanticBackend is the S-Ariadne directory store: Amigo-S documents
// parsed at publication time, capabilities classified into the DAG
// registry, matching over encoded ontologies.
type SemanticBackend struct {
	tables *codes.Registry
	// dir holds the advertisements, each with its document — the string
	// Prepare parsed, of which everything the directory keeps of the
	// advertisement but its name is a substring — and its name's version
	// numbers, in one table under its writer lock, so an advertisement is in
	// Snapshot exactly while queries can return it.
	dir     *registry.Directory
	matcher *match.CodeMatcher
}

// NewSemanticBackend builds the backend over encoded code tables.
func NewSemanticBackend(reg *codes.Registry) *SemanticBackend {
	m := match.NewCodeMatcher(reg)
	return &SemanticBackend{
		tables:  reg,
		dir:     registry.NewDirectory(m),
		matcher: m,
	}
}

// Name implements Backend.
func (b *SemanticBackend) Name() string { return "s-ariadne" }

// AddTable registers a code table with the backend's registry, new or in
// place of the one its ontology had, and has the directory encode and
// classify again the stored advertisements that refer to that ontology:
// they were matched through the table before, or through none. A directory
// that already holds advertisements takes its tables this way.
func (b *SemanticBackend) AddTable(t *codes.Table) {
	b.tables.Register(t)
	b.dir.Reclassify(t.URI())
}

// Advert is an advertisement document that Prepare has parsed and
// validated and Insert has yet to store. A caller that must decide
// between the two — admit the publisher, persist the document — does so
// on Name, without parsing the document a second time.
type Advert struct {
	doc string
	svc *profile.Service
}

// Name returns the advertised service's name.
func (a *Advert) Name() string { return a.svc.Name }

// Prepare is the parse-and-validate half of a publication: parse the
// Amigo-S document, check embedded code versions, validate the
// description. It stores nothing and copies nothing: the advertisement's
// names are substrings of doc, and Insert keeps doc itself, so a caller
// that also keeps doc holds the document's bytes once.
func (b *SemanticBackend) Prepare(doc string) (*Advert, error) {
	svc, err := profile.UnmarshalString(doc)
	if err != nil {
		return nil, err
	}
	if err := b.matcher.CheckVersions(svc); err != nil {
		return nil, err
	}
	if err := svc.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", registry.ErrInvalidCapability, err)
	}
	return &Advert{doc: doc, svc: svc}, nil
}

// Insert is the other half: classify a prepared advertisement's provided
// capabilities into the directory as the given version of its name (0: the
// next one) and keep its document. name is a.Name() in the string the
// directory may key the name's record by for good, which must not be a
// piece of the document: Directory.Lookup's. The directory adopts the
// parsed service, so the advertisement is spent. It does not fail on an
// advertisement Prepare returned.
func (b *SemanticBackend) Insert(a *Advert, name string, version uint64) error {
	a.svc.Name = name
	return b.dir.Adopt(a.svc, a.doc, version)
}

// Register implements Backend: Prepare on a copy of doc, which the caller
// may reuse, then Insert as the name's next version.
func (b *SemanticBackend) Register(doc []byte) (string, error) {
	a, err := b.Prepare(string(doc))
	if err != nil {
		return "", err
	}
	name, _, _ := b.dir.Lookup(a.Name())
	if err := b.Insert(a, name, 0); err != nil {
		return "", err
	}
	return name, nil
}

// Has reports whether an advertisement is stored under the service name.
func (b *SemanticBackend) Has(service string) bool { return b.dir.Has(service) }

// Deregister implements Backend.
func (b *SemanticBackend) Deregister(service string) bool { return b.dir.Deregister(service) }

// Documents returns the stored advertisement documents by service name.
// The strings are the stored ones, not copies: a caller that needs bytes
// converts each document when it uses it.
func (b *SemanticBackend) Documents() map[string]string { return b.dir.Documents() }

// Snapshot implements Backend: Documents, as the byte slices the interface
// asks for, converted outside the directory's lock.
func (b *SemanticBackend) Snapshot() map[string][]byte {
	docs := b.Documents()
	out := make(map[string][]byte, len(docs))
	for name, doc := range docs {
		out[name] = []byte(doc)
	}
	return out
}

// answer is the one read of a request document: parse it, resolve every
// required capability against the classified directory — hits are the
// union, best first per capability — and collect the capabilities that got
// no hit, in request order.
func (b *SemanticBackend) answer(doc []byte) (svc *profile.Service, hits []Hit, open []*profile.Capability, err error) {
	svc, err = profile.Unmarshal(doc)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(svc.Required) == 0 {
		return nil, nil, nil, ErrNoRequiredCapability
	}
	for _, req := range svc.Required {
		results := b.dir.Query(req)
		if len(results) == 0 {
			open = append(open, req)
		}
		for _, r := range results {
			hits = append(hits, Hit{
				Service:    r.Entry.Service,
				Capability: r.Entry.Capability.Name,
				Provider:   r.Entry.Provider,
				Distance:   r.Distance,
				For:        req.Name,
			})
		}
	}
	return svc, hits, open, nil
}

// Query returns the hits of Resolve, for callers with no peer to ask for
// the rest. Its one caller outside tests is bench/e2e's layer ladder
// (ladder.go), which times it as a layer; a daemon, standalone or not,
// answers through Node, and so through Resolve.
func (b *SemanticBackend) Query(doc []byte) ([]Hit, error) {
	_, hits, _, err := b.answer(doc)
	return hits, err
}

// Resolve implements Backend. A request is re-encoded only when some of
// its required capabilities were answered and some were not; keys are the
// ontology-set keys of the unanswered ones (Section 4 hashes O(C) per
// capability).
func (b *SemanticBackend) Resolve(doc []byte) (hits []Hit, rest []byte, keys []string, err error) {
	svc, hits, open, err := b.answer(doc)
	if err != nil || len(open) == 0 {
		return hits, nil, nil, err
	}
	rest = doc
	if len(open) < len(svc.Required) {
		svc.Required = open
		if rest, err = profile.Marshal(svc); err != nil {
			return nil, nil, nil, err
		}
	}
	keys = make([]string, 0, len(open))
	for _, c := range open {
		keys = append(keys, c.OntologyKey())
	}
	slices.Sort(keys)
	return hits, rest, slices.Compact(keys), nil
}

// Keys implements Backend: the distinct ontology-set keys of stored
// capabilities (Section 4 hashes O(C) per capability).
func (b *SemanticBackend) Keys() []string { return b.dir.OntologyKeys() }

// Len implements Backend.
func (b *SemanticBackend) Len() int { return b.dir.NumCapabilities() }

// Directory exposes the underlying classified directory for diagnostics
// and benchmarks.
func (b *SemanticBackend) Directory() *registry.Directory { return b.dir }

var _ Backend = (*SemanticBackend)(nil)
