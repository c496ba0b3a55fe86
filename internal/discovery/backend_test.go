package discovery

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"sariadne/internal/codes"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
)

// fixtureRegistry encodes the Figure 1 ontologies.
func fixtureRegistry(t testing.TB) *codes.Registry {
	t.Helper()
	reg := codes.NewRegistry()
	for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
		reg.Register(codes.MustEncode(ontology.MustClassify(o), codes.DefaultParams))
	}
	return reg
}

func workstationDoc(t testing.TB) []byte {
	t.Helper()
	doc, err := profile.Marshal(profile.WorkstationService())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func pdaRequestDoc(t testing.TB) []byte {
	t.Helper()
	doc, err := profile.Marshal(profile.PDAService())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// probeKey returns the one Bloom probe key of a request that nothing stored
// at b answers — what a directory tests its peers' summaries with before
// forwarding the request.
func probeKey(t testing.TB, b Backend, doc []byte) string {
	t.Helper()
	hits, rest, keys, err := b.Resolve(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 || rest == nil || len(keys) != 1 {
		t.Fatalf("Resolve = %d hits, rest %q, keys %q; want an unanswered request with one key", len(hits), rest, keys)
	}
	return keys[0]
}

func TestSemanticBackendRegisterQuery(t *testing.T) {
	b := NewSemanticBackend(fixtureRegistry(t))
	if b.Name() != "s-ariadne" {
		t.Fatalf("Name = %q", b.Name())
	}
	name, err := b.Register(workstationDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if name != "MediaWorkstation" {
		t.Fatalf("name = %q", name)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2 capabilities", b.Len())
	}

	hits, err := b.Query(pdaRequestDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Capability != "SendDigitalStream" || hits[0].Distance != 3 {
		t.Fatalf("hits = %v", hits)
	}
	if s := hits[0].String(); !strings.Contains(s, "SendDigitalStream") {
		t.Errorf("Hit.String = %q", s)
	}
}

func TestSemanticBackendRejects(t *testing.T) {
	b := NewSemanticBackend(fixtureRegistry(t))
	if _, err := b.Register([]byte("garbage")); err == nil {
		t.Fatal("registered garbage")
	}
	if _, err := b.Query([]byte("garbage")); err == nil {
		t.Fatal("queried garbage")
	}
	// A request with no required capability is an error.
	doc, err := profile.Marshal(profile.WorkstationService())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Query(doc); err == nil {
		t.Fatal("accepted request without required capabilities")
	}
	if _, _, _, err := b.Resolve(doc); !errors.Is(err, ErrNoRequiredCapability) {
		t.Fatalf("Resolve of a request without required capabilities: %v", err)
	}
	// Stale code versions are refused at publication (Section 3.2).
	svc := profile.WorkstationService()
	svc.CodeVersions = map[string]string{profile.MediaOntologyURI: "99"}
	stale, err := profile.Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Register(stale); err == nil {
		t.Fatal("accepted stale code versions")
	}
}

func TestSemanticBackendDeregister(t *testing.T) {
	b := NewSemanticBackend(fixtureRegistry(t))
	if _, err := b.Register(workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	if !b.Deregister("MediaWorkstation") {
		t.Fatal("Deregister failed")
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after deregister", b.Len())
	}
	hits, err := b.Query(pdaRequestDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("hits after deregister = %v", hits)
	}
}

// TestSemanticBackendHoldsOneDocument: an advertisement inserted from a
// string is stored as that string, not a copy, under a name that is part of
// it; bytes handed to Register are copied once on the way in, so the caller
// may reuse them; and the read side lends the stored strings (Documents) or
// converts them (Snapshot) without the two ever sharing bytes a caller
// could write.
func TestSemanticBackendHoldsOneDocument(t *testing.T) {
	b := NewSemanticBackend(fixtureRegistry(t))
	want := string(workstationDoc(t))
	doc := strings.Clone(want)
	ad, err := b.Prepare(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(ad); err != nil {
		t.Fatal(err)
	}
	for name, stored := range b.Documents() {
		if unsafe.StringData(stored) != unsafe.StringData(doc) {
			t.Error("Insert stored a copy of the document Prepare parsed")
		}
		if at := strings.Index(doc, name); unsafe.StringData(name) != unsafe.StringData(doc[at:]) {
			t.Error("the stored name is not a piece of the stored document")
		}
	}

	// Publishing the name again replaces document and key together.
	raw := []byte(want)
	if _, err := b.Register(raw); err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 'x'
	}
	docs := b.Documents()
	if len(docs) != 1 || docs["MediaWorkstation"] != want {
		t.Fatalf("after the caller overwrote its bytes the backend holds %q", docs)
	}
	for name, stored := range docs {
		if unsafe.StringData(stored) == unsafe.StringData(doc) {
			t.Error("the superseded document is still the stored one")
		}
		if at := strings.Index(stored, name); unsafe.StringData(name) != unsafe.StringData(stored[at:]) {
			t.Error("the name of a superseded advertisement still keys the new one")
		}
	}
	snap := b.Snapshot()
	if len(snap) != 1 || string(snap["MediaWorkstation"]) != want {
		t.Fatalf("Snapshot = %q", snap)
	}
	snap["MediaWorkstation"][0] = 'x'
	if b.Documents()["MediaWorkstation"] != want {
		t.Fatal("writing to Snapshot's bytes changed the stored document")
	}
}

func TestSemanticBackendKeys(t *testing.T) {
	b := NewSemanticBackend(fixtureRegistry(t))
	if _, err := b.Register(workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	keys := b.Keys()
	if len(keys) != 1 {
		t.Fatalf("Keys = %v", keys)
	}
	// A directory that does not hold the workstation probes its peers with
	// the key the one that does has hashed.
	if reqKey := probeKey(t, NewSemanticBackend(fixtureRegistry(t)), pdaRequestDoc(t)); reqKey != keys[0] {
		t.Fatalf("request key %q != stored key %q", reqKey, keys[0])
	}
}

// TestSnapshotHoldsWhatQueriesReturn is for the race detector and for the
// handover: one goroutine publishes and withdraws an advertisement while
// others query and take Snapshot, as Node.StepDown does off the daemon's
// lock. A service a query returned must be in a snapshot taken afterwards,
// unless a withdrawal was under way at some point in between: the
// advertisement and its document are stored in one step, so a handover
// never omits an advertisement the directory already serves.
func TestSnapshotHoldsWhatQueriesReturn(t *testing.T) {
	b := NewSemanticBackend(fixtureRegistry(t))
	advert, request := workstationDoc(t), pdaRequestDoc(t)
	const cycles = 2000
	var begun, finished atomic.Int64 // withdrawals; finished <= begun at all times
	var readers sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// finished first: if it equals begun, read later, none was
				// under way when begun was read.
				quiet := finished.Load()
				if begun.Load() != quiet {
					continue
				}
				hits, err := b.Query(request)
				if err != nil {
					t.Error(err)
					return
				}
				snap := b.Snapshot()
				if begun.Load() != quiet {
					continue
				}
				for _, h := range hits {
					if _, ok := snap[h.Service]; !ok {
						t.Errorf("a query returned %s, no withdrawal was under way since, and Snapshot does not hold it", h.Service)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < cycles && !t.Failed(); i++ {
		name, err := b.Register(advert)
		if err != nil {
			t.Fatal(err)
		}
		begun.Add(1)
		if !b.Deregister(name) {
			t.Fatalf("cycle %d: %s was not registered", i, name)
		}
		finished.Add(1)
	}
	close(done)
	readers.Wait()
}
