package registry

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"sariadne/internal/codes"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
)

// newFixtureDirectory builds a directory wired to the Figure 1 ontologies.
func newFixtureDirectory(t testing.TB) (*Directory, match.ConceptMatcher) {
	t.Helper()
	reg := codes.NewRegistry()
	for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
		reg.Register(codes.MustEncode(ontology.MustClassify(o), codes.DefaultParams))
	}
	m := match.NewCodeMatcher(reg)
	return NewDirectory(m), m
}

func mediaRef(name string) ontology.Ref {
	return ontology.Ref{Ontology: profile.MediaOntologyURI, Name: name}
}

func serversRef(name string) ontology.Ref {
	return ontology.Ref{Ontology: profile.ServersOntologyURI, Name: name}
}

// capability builds a test capability with one input/output and a category.
func capability(name, category, input, output string) *profile.Capability {
	c := &profile.Capability{Name: name, Category: serversRef(category)}
	if input != "" {
		c.Inputs = []ontology.Ref{mediaRef(input)}
	}
	if output != "" {
		c.Outputs = []ontology.Ref{mediaRef(output)}
	}
	return c
}

func service(name string, caps ...*profile.Capability) *profile.Service {
	return &profile.Service{Name: name, Provider: name + "-host", Provided: caps}
}

func TestRegisterAndQueryFigure1(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	if err := d.Register(profile.WorkstationService()); err != nil {
		t.Fatal(err)
	}
	req := profile.PDAService().Required[0]
	results := d.Query(req)
	if len(results) != 1 {
		t.Fatalf("Query returned %d results, want 1: %v", len(results), results)
	}
	if got := results[0].Entry.Capability.Name; got != "SendDigitalStream" {
		t.Fatalf("matched %q, want SendDigitalStream", got)
	}
	if results[0].Distance != 3 {
		t.Fatalf("distance = %d, want 3 (paper's worked example)", results[0].Distance)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterInvalidService(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	if err := d.Register(&profile.Service{}); err == nil {
		t.Fatal("Register accepted invalid service")
	}
}

func TestGraphStructureGenericToSpecific(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	// Three capabilities forming a chain: digital ⊐ streaming video ⊐ movie.
	general := capability("ServeDigital", "DigitalServer", "DigitalResource", "Stream")
	middle := capability("ServeVideo", "VideoServer", "VideoResource", "Stream")
	specific := capability("ServeMovies", "VideoServer", "Movie", "Stream")

	// Insert out of order to exercise all insertion positions.
	for i, c := range []*profile.Capability{middle, general, specific} {
		if err := d.Register(service(fmt.Sprintf("s%d", i), c)); err != nil {
			t.Fatal(err)
		}
		if err := d.checkInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	if d.NumGraphs() != 1 {
		t.Fatalf("NumGraphs = %d, want 1\n%s", d.NumGraphs(), d.Snapshot())
	}

	snap := d.Snapshot()
	if !strings.Contains(snap, "ServeDigital [root]") {
		t.Errorf("ServeDigital should be the root:\n%s", snap)
	}
	if !strings.Contains(snap, "ServeMovies") || !strings.Contains(snap, "[leaf]") {
		t.Errorf("ServeMovies should be present and a leaf exists:\n%s", snap)
	}

	// A movie request matches all three, ranked most-specific first.
	req := capability("WantMovie", "VideoServer", "Movie", "Stream")
	// The request offers Movie input and expects Stream output; category
	// required VideoServer.
	results := d.Query(req)
	if len(results) != 3 {
		t.Fatalf("Query = %v, want 3 matches\n%s", results, snap)
	}
	if results[0].Entry.Capability.Name != "ServeMovies" {
		t.Errorf("best match = %s, want ServeMovies", results[0].Entry.Capability.Name)
	}
	for i := 1; i < len(results); i++ {
		if results[i-1].Distance > results[i].Distance {
			t.Errorf("results not sorted by distance: %v", results)
		}
	}
}

func TestEquivalentCapabilitiesShareVertex(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	a := capability("StreamA", "VideoServer", "VideoResource", "Stream")
	b := capability("StreamB", "VideoServer", "VideoResource", "Stream")
	if err := d.Register(service("sa", a)); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(service("sb", b)); err != nil {
		t.Fatal(err)
	}
	if d.NumGraphs() != 1 {
		t.Fatalf("NumGraphs = %d, want 1", d.NumGraphs())
	}
	// One vertex holding two entries: snapshot shows both on one line.
	snap := d.Snapshot()
	if !strings.Contains(snap, "sa/StreamA") || !strings.Contains(snap, "sb/StreamB") {
		t.Fatalf("entries missing:\n%s", snap)
	}
	lines := strings.Count(snap, "entries:")
	if lines != 1 {
		t.Fatalf("want 1 vertex, snapshot:\n%s", snap)
	}
}

// TestUnrelatedCapabilitiesShareTheirKeysGraph: unrelated capabilities of one
// ontology set are two roots of one graph, which a query probes as it would
// two graphs; capabilities of different ontology sets are in two graphs.
func TestUnrelatedCapabilitiesShareTheirKeysGraph(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	video := capability("ServeVideo", "VideoServer", "VideoResource", "Stream")
	game := capability("ServeGame", "GameServer", "GameResource", "Stream")
	if err := d.Register(service("sv", video)); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(service("sg", game)); err != nil {
		t.Fatal(err)
	}
	// Same ontologies but unrelated capabilities: one graph, two roots that
	// are leaves, no edge.
	want := Stats{Graphs: 1, Vertices: 2, Entries: 2, MaxGraphVertices: 2, Roots: 2, Leaves: 2}
	if got := d.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v\n%s", got, want, d.Snapshot())
	}
	before := d.MatchOps()
	if hits := d.Query(capability("Req", "GameServer", "GameResource", "Stream")); len(hits) != 1 || hits[0].Entry.Service != "sg" {
		t.Fatalf("Query = %v, want sg only", hits)
	}
	if ops := d.MatchOps() - before; ops != 3 {
		t.Fatalf("the query took %d match operations, want one per root and one to rank the hit", ops)
	}
	// Another ontology set, another graph — related or not.
	if err := d.Register(service("sp", capability("Serve", "Server", "", ""))); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats(); got.Graphs != 2 || got.Roots != 3 || got.Edges != 0 {
		t.Fatalf("Stats() = %+v, want 2 graphs of 3 roots and no edge\n%s", got, d.Snapshot())
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDiamondInsertion(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	top := capability("Top", "DigitalServer", "DigitalResource", "Stream")
	left := capability("Left", "StreamingServer", "DigitalResource", "Stream")
	right := capability("Right", "DigitalServer", "VideoResource", "Stream")
	bottom := capability("Bottom", "StreamingServer", "VideoResource", "Stream")

	for i, c := range []*profile.Capability{top, bottom, left, right} {
		if err := d.Register(service(fmt.Sprintf("s%d", i), c)); err != nil {
			t.Fatal(err)
		}
		if err := d.checkInvariants(); err != nil {
			t.Fatalf("after insert %d (%s): %v\n%s", i, c.Name, err, d.Snapshot())
		}
	}
	if d.NumGraphs() != 1 {
		t.Fatalf("NumGraphs = %d, want 1\n%s", d.NumGraphs(), d.Snapshot())
	}
	snap := d.Snapshot()
	if !strings.Contains(snap, "Top [root]") {
		t.Errorf("Top must be the sole root:\n%s", snap)
	}
	// Bottom matches a bottom-shaped request at distance 0 and everything
	// else above it.
	req := capability("Req", "StreamingServer", "VideoResource", "Stream")
	results := d.Query(req)
	if len(results) != 4 {
		t.Fatalf("Query = %d results, want 4\n%s", len(results), snap)
	}
	if results[0].Entry.Capability.Name != "Bottom" || results[0].Distance != 0 {
		t.Errorf("best = %v, want Bottom at 0", results[0])
	}
}

func TestDeregister(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	a := capability("A", "DigitalServer", "DigitalResource", "Stream")
	b := capability("B", "VideoServer", "VideoResource", "Stream")
	c := capability("C", "VideoServer", "Movie", "Stream")
	for i, cap := range []*profile.Capability{a, b, c} {
		if err := d.Register(service(fmt.Sprintf("s%d", i), cap)); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Deregister("s1") { // remove the middle vertex
		t.Fatal("Deregister(s1) = false")
	}
	if d.Deregister("s1") {
		t.Fatal("double Deregister succeeded")
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatalf("invariants after removal: %v\n%s", err, d.Snapshot())
	}
	if n := d.NumCapabilities(); n != 2 {
		t.Fatalf("NumCapabilities = %d, want 2", n)
	}
	// Chain must be reconnected: a movie request still finds A and C.
	req := capability("Req", "VideoServer", "Movie", "Stream")
	results := d.Query(req)
	if len(results) != 2 {
		t.Fatalf("Query after removal = %v, want 2 results\n%s", results, d.Snapshot())
	}
	// Removing everything empties the directory.
	d.Deregister("s0")
	d.Deregister("s2")
	if d.NumGraphs() != 0 || d.NumCapabilities() != 0 {
		t.Fatalf("directory not empty: %d graphs, %d caps", d.NumGraphs(), d.NumCapabilities())
	}
}

func TestDeregisterSharedVertex(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	a := capability("Same", "VideoServer", "VideoResource", "Stream")
	b := capability("Same2", "VideoServer", "VideoResource", "Stream")
	if err := d.Register(service("sa", a)); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(service("sb", b)); err != nil {
		t.Fatal(err)
	}
	d.Deregister("sa")
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	req := capability("Req", "VideoServer", "VideoResource", "Stream")
	if results := d.Query(req); len(results) != 1 || results[0].Entry.Service != "sb" {
		t.Fatalf("Query = %v, want sb only", results)
	}
}

func TestQueryFiltersGraphsByOntology(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	if err := d.Register(profile.WorkstationService()); err != nil {
		t.Fatal(err)
	}
	// A request over an unknown ontology matches nothing and — importantly
	// — performs no semantic match operations (the graph index filters it).
	before := d.MatchOps()
	req := &profile.Capability{
		Name:     "Req",
		Category: ontology.Ref{Ontology: "http://other.example/ont", Name: "Thing"},
	}
	if results := d.Query(req); len(results) != 0 {
		t.Fatalf("Query = %v, want none", results)
	}
	if ops := d.MatchOps() - before; ops != 0 {
		t.Fatalf("unknown-ontology query performed %d match ops, want 0", ops)
	}
}

func TestBest(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	if _, ok := d.Best(profile.PDAService().Required[0]); ok {
		t.Fatal("Best on empty directory returned ok")
	}
	if err := d.Register(profile.WorkstationService()); err != nil {
		t.Fatal(err)
	}
	res, ok := d.Best(profile.PDAService().Required[0])
	if !ok || res.Entry.Capability.Name != "SendDigitalStream" {
		t.Fatalf("Best = %v, %v", res, ok)
	}
}

func TestServicesAndOntologies(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	if err := d.Register(profile.WorkstationService()); err != nil {
		t.Fatal(err)
	}
	svcs := d.Services()
	if len(svcs) != 1 || svcs[0] != "MediaWorkstation" {
		t.Fatalf("Services = %v", svcs)
	}
	uris := d.Ontologies()
	if len(uris) != 2 {
		t.Fatalf("Ontologies = %v", uris)
	}
	keys := d.OntologyKeys()
	if len(keys) != 1 { // both capabilities use the same ontology pair
		t.Fatalf("OntologyKeys = %v", keys)
	}
}

func TestQueryPrunesMatchOps(t *testing.T) {
	// The pruning claim behind Figure 9: with capabilities classified into
	// graphs, answering a request costs far fewer match operations than
	// matching against every advertisement.
	d, _ := newFixtureDirectory(t)
	// Build 30 unrelated game services and a 3-deep video chain.
	for i := 0; i < 30; i++ {
		c := capability(fmt.Sprintf("Game%d", i), "GameServer", "GameResource", "Stream")
		c.Properties = append(c.Properties, mediaRef("GameResource")) // distinct props keep them non-equivalent? no — same refs
		if err := d.Register(service(fmt.Sprintf("g%d", i), c)); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range []*profile.Capability{
		capability("ServeDigital", "DigitalServer", "DigitalResource", "Stream"),
		capability("ServeVideo", "VideoServer", "VideoResource", "Stream"),
		capability("ServeMovies", "VideoServer", "Movie", "Stream"),
	} {
		if err := d.Register(service(fmt.Sprintf("v%d", i), c)); err != nil {
			t.Fatal(err)
		}
	}

	req := capability("Req", "VideoServer", "Movie", "Stream")
	before := d.MatchOps()
	results := d.Query(req)
	ops := d.MatchOps() - before
	if len(results) != 3 {
		t.Fatalf("Query = %d results, want 3", len(results))
	}
	// Linear matching would need >= 33 match ops; the classified directory
	// needs root probes (2 graphs cover the ontologies) plus the matching
	// chain and final rescoring.
	if ops >= 33 {
		t.Fatalf("classified query used %d match ops, want < 33", ops)
	}
}

// canonicalDump renders what a snapshot holds with nothing that depends on
// how it got there — no slot, no walk position, no representative, no order
// of a node's entries: per key, every node as the sorted names of its
// entries, marked when it is a root, with the nodes it points to.
func canonicalDump(s *snapshot) string {
	var b strings.Builder
	for _, g := range s.graphs {
		label := func(n *node) string {
			names := make([]string, len(n.entries))
			for i, e := range n.entries {
				names[i] = e.String()
			}
			slices.Sort(names)
			return strings.Join(names, "=")
		}
		lines := make([]string, len(g.nodes))
		for i, n := range g.nodes {
			succs := make([]string, len(n.succs))
			for j, s := range n.succs {
				succs[j] = label(g.nodes[s])
			}
			slices.Sort(succs)
			line := label(n)
			if len(n.preds) == 0 {
				line += " [root]"
			}
			lines[i] = line + " -> {" + strings.Join(succs, ", ") + "}"
		}
		slices.Sort(lines)
		fmt.Fprintf(&b, "key %q\n  %s\n", g.key, strings.Join(lines, "\n  "))
	}
	return b.String()
}

// TestPropertyInsertionOrderIrrelevant: the directory is a function of the
// stored set. Any insertion order of the same advertisements, over two
// ontology sets, and any detour on the way there — some withdrawn and
// published again, one that came and went — yields the same counters, the
// same graph per key (node partition, edge set, root set) and the same
// answers.
func TestPropertyInsertionOrderIrrelevant(t *testing.T) {
	categories := []string{"Server", "DigitalServer", "StreamingServer", "VideoServer", "SoundServer", "GameServer"}
	inputs := []string{"Resource", "DigitalResource", "VideoResource", "SoundResource", "GameResource", "Movie"}
	outputs := []string{"Stream", "VideoStream", "AudioStream"}

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		draw := func(name string) *profile.Capability {
			c := capability(name,
				categories[rng.Intn(len(categories))],
				inputs[rng.Intn(len(inputs))],
				outputs[rng.Intn(len(outputs))],
			)
			if rng.Intn(4) == 0 {
				c.Inputs, c.Outputs = nil, nil // the servers ontology alone
			}
			return c
		}
		n := rng.Intn(8) + 3
		services := make([]*profile.Service, n)
		for i := range services {
			services[i] = service(fmt.Sprintf("s%d", i), draw(fmt.Sprintf("C%d", i)))
		}
		req, extra := draw("Req"), service("extra", draw("Extra"))

		baseline := ""
		for trial := 0; trial < 4; trial++ {
			d, _ := newFixtureDirectory(t)
			register := func(order []int) bool {
				for _, i := range order {
					if err := d.Register(services[i]); err != nil {
						return false
					}
				}
				return true
			}
			if !register(rng.Perm(n)) {
				return false
			}
			if trial >= 2 {
				if err := d.Register(extra); err != nil {
					return false
				}
				gone := rng.Perm(n)[:1+rng.Intn(n)]
				for _, i := range gone {
					d.Deregister(services[i].Name)
				}
				d.Deregister(extra.Name)
				rng.Shuffle(len(gone), func(i, j int) { gone[i], gone[j] = gone[j], gone[i] })
				if !register(gone) {
					return false
				}
			}
			if err := d.checkInvariants(); err != nil {
				t.Logf("seed %d trial %d: %v", seed, trial, err)
				return false
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%+v\n%s", d.Stats(), canonicalDump(d.snap.Load()))
			for _, r := range d.Query(req) {
				fmt.Fprintf(&b, "%s@%d;", r.Entry.Capability.Name, r.Distance)
			}
			if trial == 0 {
				baseline = b.String()
			} else if b.String() != baseline {
				t.Logf("seed %d trial %d: order dependence:\n%s\nvs\n%s", seed, trial, baseline, b.String())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyQueryEqualsLinearScan: the classified directory returns
// exactly the same match set and distances as a brute-force scan over all
// stored capabilities.
func TestPropertyQueryEqualsLinearScan(t *testing.T) {
	categories := []string{"Server", "DigitalServer", "StreamingServer", "VideoServer", "SoundServer", "GameServer"}
	inputs := []string{"Resource", "DigitalResource", "VideoResource", "SoundResource", "GameResource", "Movie"}
	outputs := []string{"Stream", "VideoStream", "AudioStream"}

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, m := newFixtureDirectory(t)
		n := rng.Intn(15) + 1
		var all []*profile.Capability
		for i := 0; i < n; i++ {
			c := capability(
				fmt.Sprintf("C%d", i),
				categories[rng.Intn(len(categories))],
				inputs[rng.Intn(len(inputs))],
				outputs[rng.Intn(len(outputs))],
			)
			all = append(all, c)
			if err := d.Register(service(fmt.Sprintf("s%d", i), c)); err != nil {
				return false
			}
		}
		for trial := 0; trial < 5; trial++ {
			req := capability("Req",
				categories[rng.Intn(len(categories))],
				inputs[rng.Intn(len(inputs))],
				outputs[rng.Intn(len(outputs))],
			)
			want := map[string]int{}
			for _, c := range all {
				if dist, ok := match.SemanticDistance(m, c, req); ok {
					want[c.Name] = dist
				}
			}
			got := map[string]int{}
			for _, r := range d.Query(req) {
				got[r.Entry.Capability.Name] = r.Distance
			}
			if len(got) != len(want) {
				t.Logf("seed %d: got %v want %v\n%s", seed, got, want, d.Snapshot())
				return false
			}
			for k, v := range want {
				if got[k] != v {
					t.Logf("seed %d: distance mismatch on %s: got %d want %d", seed, k, got[k], v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			c := capability(fmt.Sprintf("C%d", i), "VideoServer", "VideoResource", "Stream")
			if err := d.Register(service(fmt.Sprintf("s%d", i), c)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	req := capability("Req", "VideoServer", "Movie", "Stream")
	for i := 0; i < 50; i++ {
		d.Query(req)
		d.NumCapabilities()
		// Whatever snapshot the writer has published by now, it must be
		// whole: counters, key list and ontology index all of one state.
		if err := checkSnapshotConsistent(d.snap.Load()); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryStats(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	if s := d.Stats(); s != (Stats{}) {
		t.Fatalf("empty stats = %+v", s)
	}
	for i, c := range []*profile.Capability{
		capability("ServeDigital", "DigitalServer", "DigitalResource", "Stream"),
		capability("ServeVideo", "VideoServer", "VideoResource", "Stream"),
		capability("ServeMovies", "VideoServer", "Movie", "Stream"),
		capability("ServeGames", "GameServer", "GameResource", "Stream"),
	} {
		if err := d.Register(service(fmt.Sprintf("s%d", i), c)); err != nil {
			t.Fatal(err)
		}
	}
	// ServeDigital subsumes all three others (DigitalServer ⊒ VideoServer
	// and GameServer; DigitalResource ⊒ everything): one graph rooted at
	// ServeDigital with chains to ServeMovies and ServeGames.
	s := d.Stats()
	want := Stats{Graphs: 1, Vertices: 4, Edges: 3, Entries: 4, MaxGraphVertices: 4, Roots: 1, Leaves: 2}
	if s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

// TestGraphUnlistedWhenOntologyWithdrawn: a graph is listed under the
// ontologies of its key while it has members. Once the last member of the
// one graph that uses an ontology is withdrawn, queries over that ontology
// are offered no graph and Ontologies() stops reporting it.
func TestGraphUnlistedWhenOntologyWithdrawn(t *testing.T) {
	d, _ := newFixtureDirectory(t)
	plain := service("plain", capability("Serve", "Server", "", ""))        // servers ontology only
	media := service("media", capability("Stream", "Server", "", "Stream")) // servers and media; can stand in for Serve
	for _, s := range []*profile.Service{media, plain} {
		if err := d.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumGraphs() != 2 {
		t.Fatalf("capabilities of two ontology sets should be in two graphs:\n%s", d.Snapshot())
	}
	mediaRequest := capability("Req", "Server", "", "Stream")
	listed := func() bool {
		return len(d.snap.Load().candidateGraphs([]string{profile.MediaOntologyURI})) > 0
	}
	if !listed() || len(d.Ontologies()) != 2 || len(d.Query(mediaRequest)) != 1 {
		t.Fatalf("with both members: listed under media %v, Ontologies %v, hits %v", listed(), d.Ontologies(), d.Query(mediaRequest))
	}
	// A request over the servers ontology alone is offered both graphs: the
	// media capability can stand in for it.
	if hits := d.Query(capability("Req", "Server", "", "")); len(hits) != 2 {
		t.Fatalf("a servers-only query got %v, want both capabilities", hits)
	}

	d.Deregister("media")
	if got := d.Ontologies(); !slices.Equal(got, []string{profile.ServersOntologyURI}) {
		t.Fatalf("Ontologies() = %v after the media member left, want the servers ontology alone", got)
	}
	before := d.MatchOps()
	if hits := d.Query(mediaRequest); len(hits) != 0 || d.MatchOps() != before {
		t.Fatalf("a media query got %v for %d match operations; no graph should have been offered", hits, d.MatchOps()-before)
	}
	if listed() || d.NumGraphs() != 1 {
		t.Fatalf("listed under the media ontology: %v; %d graphs, want the servers one alone", listed(), d.NumGraphs())
	}
	checkAgainstScratch(t, d, []*profile.Capability{mediaRequest})

	// Back again, the media capability is classified as it would be in a
	// directory that had never held it: its key has no graph, so it starts
	// one, and that one is listed.
	if err := d.Register(media); err != nil {
		t.Fatal(err)
	}
	if !listed() || d.NumGraphs() != 2 || len(d.Ontologies()) != 2 || len(d.Query(mediaRequest)) != 1 {
		t.Fatalf("after the media member returned: listed %v, %d graphs, Ontologies %v, hits %v", listed(), d.NumGraphs(), d.Ontologies(), d.Query(mediaRequest))
	}
	checkAgainstScratch(t, d, []*profile.Capability{mediaRequest})
}
