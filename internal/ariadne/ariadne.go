// Package ariadne implements the syntactic baseline S-Ariadne is compared
// against in Figure 10: the original Ariadne discovery protocol's
// directory behaviour, where advertisements are WSDL descriptions and a
// query is answered by syntactically comparing the required interface with
// every cached description.
//
// It plugs into the same protocol shell as the semantic backend
// (discovery.Node), so both systems run the identical election, Bloom
// summary and forwarding machinery — the measured difference is exactly
// the local description handling and matching, as in the paper.
package ariadne

import (
	"sort"
	"sync"

	"sariadne/internal/discovery"
	"sariadne/internal/wsdl"
)

// Backend is the syntactic directory store. It is safe for concurrent use.
//
// Faithful to the original Ariadne's behaviour — and to the paper's
// explanation of Figure 10 ("using S-Ariadne, the services are parsed once
// at the publishing phase ... while using Ariadne the matching is
// performed by syntactically comparing the WSDL descriptions") — the
// backend stores the advertisement documents and processes them again
// when answering a query, which is what makes its response time grow
// with the number of cached services.
type Backend struct {
	mu   sync.RWMutex
	defs []*storedDef
}

type storedDef struct {
	name string
	doc  []byte
	def  *wsdl.Definition // parsed form, used for summaries only
}

// NewBackend returns an empty syntactic backend.
func NewBackend() *Backend { return &Backend{} }

// Name implements discovery.Backend.
func (b *Backend) Name() string { return "ariadne" }

// Register implements discovery.Backend: parse the WSDL document and store
// it (flat, as Ariadne's directories do).
func (b *Backend) Register(doc []byte) (string, error) {
	d, err := wsdl.Unmarshal(doc)
	if err != nil {
		return "", err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	stored := &storedDef{name: d.Name, doc: append([]byte(nil), doc...), def: d}
	// Re-registration replaces the previous description of the service.
	for i, old := range b.defs {
		if old.name == d.Name {
			b.defs[i] = stored
			return d.Name, nil
		}
	}
	b.defs = append(b.defs, stored)
	return d.Name, nil
}

// Deregister implements discovery.Backend.
func (b *Backend) Deregister(service string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, d := range b.defs {
		if d.name == service {
			b.defs = append(b.defs[:i], b.defs[i+1:]...)
			return true
		}
	}
	return false
}

// Resolve implements discovery.Backend: parse the required interface, then
// process every cached WSDL description and compare it syntactically —
// the per-advertisement document handling whose linear growth Figure 10
// shows. A WSDL request asks for its port types as a unit (Satisfies is
// all-or-nothing), so what is left for other directories is the whole
// request or nothing, probed by the identifier Keys hashes: the first port
// type's name.
func (b *Backend) Resolve(doc []byte) (hits []discovery.Hit, rest []byte, keys []string, err error) {
	req, err := wsdl.Unmarshal(doc)
	if err != nil {
		return nil, nil, nil, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, stored := range b.defs {
		d, err := wsdl.Unmarshal(stored.doc)
		if err != nil {
			continue // a corrupt cached description must not fail the query
		}
		if wsdl.Satisfies(d, req) {
			cap := ""
			if len(req.PortTypes) > 0 && len(req.PortTypes[0].Operations) > 0 {
				cap = req.PortTypes[0].Operations[0].Name
			}
			hits = append(hits, discovery.Hit{
				Service:    d.Name,
				Capability: cap,
				Provider:   d.TargetNamespace,
				For:        req.Name,
			})
		}
	}
	if len(hits) > 0 {
		sort.Slice(hits, func(i, j int) bool { return hits[i].Service < hits[j].Service })
		return hits, nil, nil, nil
	}
	key := req.Name
	if len(req.PortTypes) > 0 {
		key = req.PortTypes[0].Name
	}
	return nil, doc, []string{key}, nil
}

// Keys implements discovery.Backend: Ariadne summarizes directory content
// by hashing description identifiers (port type names stand in for the
// WSDL vocabulary of [12]).
func (b *Backend) Keys() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	seen := make(map[string]struct{})
	for _, stored := range b.defs {
		for _, pt := range stored.def.PortTypes {
			seen[pt.Name] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len implements discovery.Backend.
func (b *Backend) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.defs)
}

// Snapshot implements discovery.Backend.
func (b *Backend) Snapshot() map[string][]byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[string][]byte, len(b.defs))
	for _, stored := range b.defs {
		out[stored.name] = append([]byte(nil), stored.doc...)
	}
	return out
}

var _ discovery.Backend = (*Backend)(nil)
