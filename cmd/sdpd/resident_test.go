package main

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sariadne/internal/gen"
	"sariadne/internal/ontology"
	"sariadne/internal/sdpapi"
	"sariadne/internal/testutil"
)

// The two directory shapes of the live benchmark (bench/e2e): sparse is
// lookup-sparse's 22 ontologies of 40 concepts, over which most
// advertisements are related to no other and a graph is ~90 roots; dense is
// lookup-dense's 2 of 12, over which they pile into two large graphs.
var residentShapes = []residentShape{
	{"sparse", 22, 40, 2000, 1},
	{"dense", 2, 12, 1400, 2},
}

type residentShape struct {
	name                string
	ontologies, classes int
	// live is the shape's directory size in the live benchmark and depth how
	// far its requests specialize an advertisement's concepts.
	live, depth int
}

// residentFixture is an empty server booted from cfg with a shape's
// ontologies uploaded, and
// n advertisements to publish on it. The documents stay with the fixture:
// publish hands the server a copy of its own each time, as a front end
// decoding a request does, so what the server keeps shows in the heap.
type residentFixture struct {
	srv   *server
	w     *gen.Workload
	names []string
	docs  []string
}

func newResidentFixture(tb testing.TB, cfg config, ontologies, classes, n int) *residentFixture {
	tb.Helper()
	w, err := gen.NewWorkload(gen.WorkloadConfig{Ontologies: ontologies, ClassesPerOntology: classes, Services: n, Seed: 2006})
	if err != nil {
		tb.Fatal(err)
	}
	f := &residentFixture{w: w, srv: bootServer(tb, cfg)}
	for _, o := range w.Ontologies {
		data, err := ontology.Marshal(o)
		if err != nil {
			tb.Fatal(err)
		}
		if resp := f.srv.handle(sdpapi.Request{Op: sdpapi.OpAddOntology, Doc: string(data)}); !resp.OK {
			tb.Fatalf("add-ontology: %s", resp.Error)
		}
	}
	for i, svc := range w.Services {
		f.names = append(f.names, svc.Name)
		f.docs = append(f.docs, string(w.ServiceDocs[i]))
	}
	return f
}

func (f *residentFixture) publishAll(tb testing.TB) {
	tb.Helper()
	for _, doc := range f.docs {
		if resp := f.srv.handle(sdpapi.Request{Op: sdpapi.OpRegister, Doc: strings.Clone(doc)}); !resp.OK {
			tb.Fatalf("register: %s", resp.Error)
		}
	}
}

func (f *residentFixture) docBytes() (total int) {
	for _, doc := range f.docs {
		total += len(doc)
	}
	return total
}

// versionBytes is what the directory's version numbers take: the one thing
// a name is meant to keep of every publication, 8 bytes each, in a list
// grown by one append per publication. It is the capacity such a list has,
// not the directory's own list's, which a test outside the registry cannot
// see: whatever the directory's lists hold beyond it stays in the heap
// figure it is subtracted from, and counts against that figure's budget.
func (f *residentFixture) versionBytes() (total int64) {
	for _, name := range f.names {
		versions, _, _ := f.srv.backend.Directory().History(name)
		var grown []uint64
		for range versions {
			grown = append(grown, 0)
		}
		total += 8 * int64(cap(grown))
	}
	return total
}

// residentOverhead is what a stored advertisement may cost on the heap
// beyond its own document, per shape: the largest figure this tree measures
// (sparse 818 B, dense 814 B, durable 854 B, all under the race detector,
// whose build adds about 10) plus 10 %. internal/gen's documents are 424
// bytes, so an advertisement costs 1.21 KB and 1.23 KB. The tree that kept
// the version numbers in a second table of the daemon's, beside the
// directory's record of the name, measured 933, 927 and 992 B; the one that
// gave every capability related to no other a graph of its own 1179, 974
// and 1238 B; the one that held every capability DAG twice — the writer's
// vertices and a compiled copy — and indexed the service name once for the
// document and once for the entries 1511, 1220 and 1570 B; the one before an
// advertisement was made to live once 3380 and 2608 B (3.8 KB and 3.0 KB
// each; on the live benchmark's 704-byte documents 4.4 KB), and it kept
// every superseded document: publishing each name five times more took it to
// 6.6 KB.
var residentOverhead = map[string]int64{"sparse": 900, "dense": 895, "durable": 940}

// residentWithdrawn is what a withdrawn name may leave on the heap: the
// largest figure measured (272 B, with a store; 215-235 B without) plus
// 10 %. Most of it is the directory's record of the name — the record, its
// own copy of the name, six version numbers, a slot in the service table —
// and the rest the slot the name held in the store's key directory, which Go
// maps keep when they empty and the next advertisements reuse. None of it
// scales with the document. With the numbers in a table of the daemon's
// beside the directory's it was 421 B.
const residentWithdrawn = 300

// TestResidentBytesPerAdvert is the directory's byte budget, counted on the
// heap and so independent of the host: what a published advertisement adds
// to the live heap is its document, once, plus a fixed overhead; the figure
// does not grow with the directory; publishing a name again replaces what
// the name cost instead of adding to it; and withdrawing everything gives
// the memory back, save the directory's record of the name.
func TestResidentBytesPerAdvert(t *testing.T) {
	for _, shape := range residentShapes {
		t.Run(shape.name, func(t *testing.T) {
			perAdvert := make(map[int]int64)
			for _, n := range []int{500, 2000} {
				f := newResidentFixture(t, bareConfig(), shape.ontologies, shape.classes, n)
				perAdvert[n] = f.checkResident(t, residentOverhead[shape.name])
			}
			if small, large := perAdvert[500], perAdvert[2000]; large > small+small/10 || small > large+large/10 {
				t.Errorf("an advertisement costs %d B in a directory of 500 and %d B in one of 2000, over 10 %% apart", small, large)
			}
		})
	}
	// The same with a store attached, as publish-durable runs: the store's
	// key directory is one more table keyed by the advertisement's name that
	// outlives each version of its document.
	t.Run("durable", func(t *testing.T) {
		cfg := bareConfig()
		cfg.state, cfg.syncEvery = filepath.Join(t.TempDir(), "state.bolt"), 1<<20 // nothing is read back from the file
		f := newResidentFixture(t, cfg, residentShapes[0].ontologies, residentShapes[0].classes, 500)
		f.checkResident(t, residentOverhead["durable"])
	})
}

// checkResident publishes the fixture's advertisements on its empty
// server, publishes every name five times more, withdraws them all, and
// holds the live heap to the budget at each step. It returns what one
// advertisement cost after the first pass.
func (f *residentFixture) checkResident(t *testing.T, overhead int64) (perAdvert int64) {
	t.Helper()
	n := int64(len(f.docs))
	empty := testutil.LiveHeapBytes()
	f.publishAll(t)
	once, numbers := testutil.LiveHeapBytes()-empty, f.versionBytes()
	perAdvert = once / n
	doc := int64(f.docBytes()) / n
	t.Logf("%d adverts: %d B each on the heap, of which the document %d B, overhead %d B",
		n, perAdvert, doc, perAdvert-doc)
	if budget := doc + overhead; perAdvert > budget {
		t.Errorf("%d adverts: %d B each, over the budget of %d (a %d-byte document + %d)",
			n, perAdvert, budget, doc, overhead)
	}

	for pass := 0; pass < 5; pass++ {
		f.publishAll(t)
	}
	numbers = f.versionBytes() - numbers
	again := testutil.LiveHeapBytes() - empty - numbers
	t.Logf("%d adverts: %d B each after publishing every name 5 times more (%+.1f %%), and %d B of version numbers",
		n, again/n, 100*float64(again-once)/float64(once), numbers/n)
	if again > once+once/20 {
		t.Errorf("%d adverts: publishing every name 5 times more took the heap from %d to %d B beside the version numbers, over 5 %% more",
			n, once, again)
	}

	for _, name := range f.names {
		if resp := f.srv.handle(sdpapi.Request{Op: sdpapi.OpDeregister, Name: name}); !resp.OK {
			t.Fatalf("deregister %s: %s", name, resp.Error)
		}
	}
	left := (testutil.LiveHeapBytes() - empty) / n
	t.Logf("%d adverts: %d B left per withdrawn name", n, left)
	if left > residentWithdrawn {
		t.Errorf("%d adverts: withdrawing everything leaves %d B per name, want at most %d", n, left, residentWithdrawn)
	}
	runtime.KeepAlive(f)
	return perAdvert
}

// BenchmarkPreloadResident reports what preloading 2000 advertisements
// leaves on the heap and allocates on the way, per advertisement, in both
// directory shapes; `make bench-smoke` runs it once.
func BenchmarkPreloadResident(b *testing.B) {
	const n = 2000
	for _, shape := range residentShapes {
		b.Run(shape.name, func(b *testing.B) {
			var resident int64
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := newResidentFixture(b, bareConfig(), shape.ontologies, shape.classes, n)
				empty := testutil.LiveHeapBytes()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.StartTimer()
				f.publishAll(b)
				b.StopTimer()
				runtime.ReadMemStats(&after)
				resident += testutil.LiveHeapBytes() - empty
				mallocs += after.Mallocs - before.Mallocs
				runtime.KeepAlive(f)
			}
			b.ReportMetric(float64(resident)/float64(b.N)/n, "B/advert")
			b.ReportMetric(float64(mallocs)/float64(b.N)/n, "allocs/advert")
		})
	}
}
