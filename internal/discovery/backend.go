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
	"maps"
	"sync"

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
	// Query parses a request document and returns matching hits, best
	// first.
	Query(doc []byte) ([]Hit, error)
	// Keys returns the summary keys of the stored content — the unit
	// hashed into the directory's Bloom filter.
	Keys() []string
	// RequestKey derives the Bloom probe key for a request document.
	RequestKey(doc []byte) (string, error)
	// RequiredNames lists the required capabilities of a request document,
	// so the protocol can detect partially answered queries.
	RequiredNames(doc []byte) ([]string, error)
	// Subset rebuilds a request document keeping only the named required
	// capabilities (used when forwarding just the unresolved part of a
	// query, Figure 6 step 3).
	Subset(doc []byte, names []string) ([]byte, error)
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
	tables  *codes.Registry
	dir     *registry.Directory
	matcher *match.CodeMatcher

	mu sync.Mutex
	// docs holds each stored advertisement's document under its service
	// name: the string Prepare parsed, of which the name and everything the
	// directory keeps of the advertisement are substrings.
	docs map[string]string // guarded by mu
}

// NewSemanticBackend builds the backend over encoded code tables.
func NewSemanticBackend(reg *codes.Registry) *SemanticBackend {
	m := match.NewCodeMatcher(reg)
	return &SemanticBackend{
		tables:  reg,
		dir:     registry.NewDirectory(m),
		matcher: m,
		docs:    make(map[string]string),
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
// capabilities into the directory and keep its document. The directory
// adopts the parsed service, so the advertisement is spent. It does not
// fail on an advertisement Prepare returned.
func (b *SemanticBackend) Insert(a *Advert) error {
	if err := b.dir.Adopt(a.svc); err != nil {
		return err
	}
	b.mu.Lock()
	// Assigning over a name already stored would keep the old key, a
	// substring of the document being replaced.
	delete(b.docs, a.svc.Name)
	b.docs[a.svc.Name] = a.doc
	b.mu.Unlock()
	return nil
}

// Register implements Backend: Prepare on a copy of doc, which the caller
// may reuse, then Insert.
func (b *SemanticBackend) Register(doc []byte) (string, error) {
	a, err := b.Prepare(string(doc))
	if err != nil {
		return "", err
	}
	if err := b.Insert(a); err != nil {
		return "", err
	}
	return a.Name(), nil
}

// Has reports whether an advertisement is stored under the service name.
func (b *SemanticBackend) Has(service string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.docs[service]
	return ok
}

// Deregister implements Backend.
func (b *SemanticBackend) Deregister(service string) bool {
	b.mu.Lock()
	delete(b.docs, service)
	b.mu.Unlock()
	return b.dir.Deregister(service)
}

// Documents returns the stored advertisement documents by service name.
// The strings are the stored ones, not copies: taking the listing costs
// one map of headers under the lock, and a caller that needs bytes
// converts each document when it uses it.
func (b *SemanticBackend) Documents() map[string]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return maps.Clone(b.docs)
}

// Snapshot implements Backend: Documents, as the byte slices the interface
// asks for, converted outside the lock.
func (b *SemanticBackend) Snapshot() map[string][]byte {
	docs := b.Documents()
	out := make(map[string][]byte, len(docs))
	for name, doc := range docs {
		out[name] = []byte(doc)
	}
	return out
}

// Query implements Backend: every required capability of the request
// document is resolved against the classified directory; hits are the
// union, best-first per capability.
func (b *SemanticBackend) Query(doc []byte) ([]Hit, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return nil, err
	}
	reqs := svc.Required
	if len(reqs) == 0 {
		return nil, ErrNoRequiredCapability
	}
	var hits []Hit
	for _, req := range reqs {
		for _, r := range b.dir.Query(req) {
			hits = append(hits, Hit{
				Service:    r.Entry.Service,
				Capability: r.Entry.Capability.Name,
				Provider:   r.Entry.Provider,
				Distance:   r.Distance,
				For:        req.Name,
			})
		}
	}
	return hits, nil
}

// RequiredNames implements Backend.
func (b *SemanticBackend) RequiredNames(doc []byte) ([]string, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return nil, err
	}
	if len(svc.Required) == 0 {
		return nil, ErrNoRequiredCapability
	}
	names := make([]string, 0, len(svc.Required))
	for _, c := range svc.Required {
		names = append(names, c.Name)
	}
	return names, nil
}

// Subset implements Backend: the request document restricted to the named
// required capabilities.
func (b *SemanticBackend) Subset(doc []byte, names []string) ([]byte, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	kept := svc.Required[:0]
	for _, c := range svc.Required {
		if want[c.Name] {
			kept = append(kept, c)
		}
	}
	svc.Required = kept
	if len(svc.Required) == 0 {
		return nil, ErrNoRequiredCapability
	}
	return profile.Marshal(svc)
}

// Keys implements Backend: the distinct ontology-set keys of stored
// capabilities (Section 4 hashes O(C) per capability).
func (b *SemanticBackend) Keys() []string { return b.dir.OntologyKeys() }

// RequestKey implements Backend: the ontology-set key of the first
// required capability.
func (b *SemanticBackend) RequestKey(doc []byte) (string, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return "", err
	}
	if len(svc.Required) == 0 {
		return "", ErrNoRequiredCapability
	}
	return svc.Required[0].OntologyKey(), nil
}

// Len implements Backend.
func (b *SemanticBackend) Len() int { return b.dir.NumCapabilities() }

// ServiceName parses just enough of a document to name the service; the
// protocol uses it to track a node's own publications across directory
// churn.
func (b *SemanticBackend) ServiceName(doc []byte) (string, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return "", err
	}
	return svc.Name, nil
}

// Directory exposes the underlying classified directory for diagnostics
// and benchmarks.
func (b *SemanticBackend) Directory() *registry.Directory { return b.dir }

var _ Backend = (*SemanticBackend)(nil)
