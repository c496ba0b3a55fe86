package discovery

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/telemetry"
)

// sameBytes reports whether two slices are one: same backing array, same
// length.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// requestOf marshals a request for the given capabilities.
func requestOf(t testing.TB, caps ...*profile.Capability) []byte {
	t.Helper()
	doc, err := profile.Marshal(&profile.Service{Name: "requester", Provider: "client", Required: caps})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestResolveEqualsQueryPlusSubset holds Resolve to what Query, the list
// of required names, Subset and the request key added up to before they
// were one method: the hits of one directory query per required capability,
// in request order; a remainder that asks for exactly the capabilities with
// no hit — the caller's own bytes when that is all of them, nothing when it
// is none; and one probe key per distinct ontology set of the remainder.
func TestResolveEqualsQueryPlusSubset(t *testing.T) {
	type scenario struct {
		name    string
		reg     func() *codes.Registry
		stored  [][]byte
		request []byte
	}
	var scenarios []scenario

	fig1 := func() *codes.Registry { return fixtureRegistry(t) }
	for _, req := range []struct {
		name string
		doc  []byte
	}{
		{"video", pdaRequestDoc(t)},
		{"game", requestOf(t, twoCapRequest(t).Required[1])},
		{"video+game", twoCapRequestDoc(t)},
	} {
		for _, dir := range []struct {
			name   string
			stored [][]byte
		}{
			{"none", nil},
			{"video-box", [][]byte{videoOnlyServiceDoc(t)}},
			{"game-box", [][]byte{gameOnlyServiceDoc(t)}},
			{"workstation", [][]byte{workstationDoc(t)}},
		} {
			scenarios = append(scenarios, scenario{"fig1/" + req.name + "/" + dir.name, fig1, dir.stored, req.doc})
		}
	}

	w := gen.MustNewWorkload(gen.WorkloadConfig{Ontologies: 6, Services: 12, Seed: 23})
	pool := func() *codes.Registry {
		reg, err := w.Registry(codes.DefaultParams)
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	var asked []*profile.Capability
	for _, i := range []int{2, 5, 9} {
		c := w.Request(i, 1)
		c.Name = fmt.Sprintf("ask-%d", i) // every generated capability is "cap0"
		asked = append(asked, c)
	}
	for n := 1; n <= len(asked); n++ {
		doc := requestOf(t, asked[:n]...)
		for _, dir := range []struct {
			name   string
			stored [][]byte
		}{
			{"none", nil},
			{"first", w.ServiceDocs[2:3]},
			{"last", w.ServiceDocs[9:10]},
			{"all", w.ServiceDocs},
		} {
			scenarios = append(scenarios, scenario{fmt.Sprintf("gen/%d-cap/%s", n, dir.name), pool, dir.stored, doc})
		}
	}

	partial := 0
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			b := NewSemanticBackend(sc.reg())
			for _, doc := range sc.stored {
				if _, err := b.Register(doc); err != nil {
					t.Fatal(err)
				}
			}
			// The reference: one directory query per required capability.
			req, err := profile.Unmarshal(sc.request)
			if err != nil {
				t.Fatal(err)
			}
			var wantHits []Hit
			var open []*profile.Capability
			var wantKeys []string
			for _, c := range req.Required {
				results := b.Directory().Query(c)
				if len(results) == 0 {
					open = append(open, c)
					wantKeys = append(wantKeys, c.OntologyKey())
				}
				for _, r := range results {
					wantHits = append(wantHits, Hit{
						Service: r.Entry.Service, Capability: r.Entry.Capability.Name,
						Provider: r.Entry.Provider, Distance: r.Distance, For: c.Name,
					})
				}
			}
			slices.Sort(wantKeys)
			wantKeys = slices.Compact(wantKeys)

			hits, rest, keys, err := b.Resolve(sc.request)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hits, wantHits) {
				t.Errorf("hits = %v, want %v", hits, wantHits)
			}
			if queried, err := b.Query(sc.request); err != nil || !reflect.DeepEqual(queried, wantHits) {
				t.Errorf("Query = %v, %v; want %v", queried, err, wantHits)
			}
			if !reflect.DeepEqual(keys, wantKeys) {
				t.Errorf("keys = %q, want %q", keys, wantKeys)
			}
			switch {
			case len(open) == 0:
				if rest != nil {
					t.Errorf("every capability was answered, yet rest = %q", rest)
				}
				return
			case len(open) == len(req.Required):
				if !sameBytes(rest, sc.request) {
					t.Error("no capability was answered, yet rest is not the caller's document")
				}
			default:
				partial++
				if sameBytes(rest, sc.request) {
					t.Error("some capabilities were answered, yet rest is the whole request")
				}
			}
			left, err := profile.Unmarshal(rest)
			if err != nil {
				t.Fatalf("rest does not parse: %v\n%s", err, rest)
			}
			if left.Name != req.Name || left.Provider != req.Provider || len(left.Required) != len(open) {
				t.Fatalf("rest = %v, want %s asking for %v", left, req.Name, open)
			}
			for i, c := range left.Required {
				if !c.Equal(open[i]) {
					t.Errorf("rest asks for %v at %d, want %v", c, i, open[i])
				}
			}
		})
	}
	if partial < 3 {
		t.Errorf("%d scenarios left a partial remainder: the table no longer covers the re-encoded case", partial)
	}

	// A document that asks for nothing is no request, stored content or not.
	b := NewSemanticBackend(fixtureRegistry(t))
	hits, rest, keys, err := b.Resolve(workstationDoc(t))
	if !errors.Is(err, ErrNoRequiredCapability) || hits != nil || rest != nil || keys != nil {
		t.Fatalf("Resolve of an advertisement = %v, %q, %q, %v", hits, rest, keys, err)
	}
}

// twoCapRequest is twoCapRequestDoc, parsed.
func twoCapRequest(t *testing.T) *profile.Service {
	t.Helper()
	svc, err := profile.Unmarshal(twoCapRequestDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestForwardProbesEveryKey: a request whose unresolved capabilities use
// different ontology sets reaches every peer whose summary holds one of
// them, not only the peers holding the first (Section 4 hashes the ontology
// set per capability). The origin d0 stores nothing; the video capability's
// ontologies are known at d1 only, the hosting capability's at d2 only.
func TestForwardProbesEveryKey(t *testing.T) {
	_, nodes := backbone(t, 3, Config{QueryTimeout: 500 * time.Millisecond, TickInterval: 2 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := nodes[1].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].Publish(ctx, serversOnlyDoc(t, "Rack")); err != nil {
		t.Fatal(err)
	}
	video := profile.PDAService().Required[0]
	host := &profile.Capability{
		Name:     "NeedHost",
		Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: "GameServer"},
	}
	if video.OntologyKey() == host.OntologyKey() {
		t.Fatal("the two capabilities share an ontology set: the test probes one key")
	}
	waitUntil(t, 2*time.Second, "each peer's summary at d0, holding its own key only", func() bool {
		return sees(nodes[0], nodes[1], video.OntologyKey()) && !sees(nodes[0], nodes[1], host.OntologyKey()) &&
			sees(nodes[0], nodes[2], host.OntologyKey()) && !sees(nodes[0], nodes[2], video.OntologyKey())
	})

	res, err := nodes[0].DiscoverResult(ctx, requestOf(t, video, host))
	if err != nil {
		t.Fatal(err)
	}
	from := map[string]string{}
	for _, h := range res.Hits {
		from[h.For] = h.Service + "@" + h.Directory
	}
	if want := map[string]string{"GetVideoStream": "MediaWorkstation@d1", "NeedHost": "Rack@d2"}; !reflect.DeepEqual(from, want) {
		t.Fatalf("answers = %v, want %v (hits %v)", from, want, res.Hits)
	}
	if st := nodes[0].Stats(); st.ForwardsSent != 2 || st.ForwardsPruned != 0 {
		t.Fatalf("stats = %+v, want both peers contacted and none pruned", st)
	}

	// Any key admits a peer; only a peer passing none is pruned.
	if _, err := nodes[0].DiscoverResult(ctx, requestOf(t, host)); err != nil {
		t.Fatal(err)
	}
	if st := nodes[0].Stats(); st.ForwardsSent != 3 || st.ForwardsPruned != 1 {
		t.Fatalf("stats = %+v, want a one-key request to contact d2 and prune d1", st)
	}
}

// parseCount reads how many Amigo-S documents this process has parsed.
func parseCount(t *testing.T) uint64 {
	t.Helper()
	for _, m := range telemetry.Default().Snapshot() {
		if m.Name == "profile_parse_seconds" {
			return m.Count
		}
	}
	t.Fatal("profile_parse_seconds is not registered")
	return 0
}

// TestRequestParsedOncePerDirectory is the count guard on the read path: a
// request costs one parse at every directory that answers it and none
// anywhere else — one for a query its entry directory answers, two for one
// it forwards. What is forwarded is the client's own document when nothing
// of it was answered, and a re-encoded one asking for the rest otherwise.
func TestRequestParsedOncePerDirectory(t *testing.T) {
	// No retransmissions: one a slow run provoked would be parsed again.
	rec, nodes := backbone(t, 2, Config{QueryTimeout: 500 * time.Millisecond, TickInterval: 2 * time.Millisecond, ForwardRetries: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := nodes[0].Publish(ctx, videoOnlyServiceDoc(t)); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Publish(ctx, gameOnlyServiceDoc(t)); err != nil {
		t.Fatal(err)
	}
	game := twoCapRequest(t).Required[1]
	waitUntil(t, 2*time.Second, "d1's summary at d0", func() bool {
		return sees(nodes[0], nodes[1], game.OntologyKey())
	})

	for _, q := range []struct {
		name       string
		doc        []byte
		parses     uint64
		hits       int
		forwarded  int  // requests forwarded so far, this one included
		ownBytes   bool // the forward carries doc itself
		restAsksTo string
	}{
		{name: "answered locally", doc: pdaRequestDoc(t), parses: 1, hits: 1},
		{name: "forwarded whole", doc: requestOf(t, game), parses: 2, hits: 1, forwarded: 1, ownBytes: true, restAsksTo: "GetGame"},
		{name: "forwarded in part", doc: twoCapRequestDoc(t), parses: 2, hits: 2, forwarded: 2, restAsksTo: "GetGame"},
	} {
		before := parseCount(t)
		res, err := nodes[0].DiscoverResult(ctx, q.doc)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if got := parseCount(t) - before; got != q.parses {
			t.Errorf("%s: %d parses, want %d", q.name, got, q.parses)
		}
		if len(res.Hits) != q.hits {
			t.Errorf("%s: hits = %v, want %d", q.name, res.Hits, q.hits)
		}
		sent := rec.forwarded()
		if len(sent) != q.forwarded {
			t.Fatalf("%s: %d requests forwarded so far, want %d", q.name, len(sent), q.forwarded)
		}
		if q.forwarded == 0 {
			continue
		}
		fwd := sent[len(sent)-1]
		if sameBytes(fwd, q.doc) != q.ownBytes {
			t.Errorf("%s: the forward is the client's own slice: %t, want %t", q.name, !q.ownBytes, q.ownBytes)
		}
		left, err := profile.Unmarshal(fwd)
		if err != nil || len(left.Required) != 1 || left.Required[0].Name != q.restAsksTo {
			t.Errorf("%s: forwarded %v, %v; want a request for %s alone", q.name, left, err, q.restAsksTo)
		}
	}
}
