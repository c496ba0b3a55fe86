package registry

import (
	"fmt"
	"runtime"
	"testing"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/match"
	"sariadne/internal/profile"
)

// sizedDirectory registers services advertisements of one of the live
// benchmark's two directory shapes and returns the directory with one
// further advertisement of the same shape, not registered. Sparse is one
// ontology of 40 concepts per ~90 services (lookup-sparse: nearly every
// capability is unrelated to every other, so graphs are singletons and
// the graph list grows with the directory); dense is two ontologies of 12
// concepts whatever the size (lookup-dense: a few large graphs).
func sizedDirectory(tb testing.TB, services int, dense bool) (*Directory, *profile.Service) {
	tb.Helper()
	cfg := gen.WorkloadConfig{Ontologies: max(1, services/90), Services: services + 1, Seed: 2006}
	if dense {
		cfg.Ontologies, cfg.ClassesPerOntology = 2, 12
	}
	w := gen.MustNewWorkload(cfg)
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		tb.Fatal(err)
	}
	d := NewDirectory(match.NewCodeMatcher(reg))
	for _, svc := range w.Services[:services] {
		if err := d.Register(svc); err != nil {
			tb.Fatal(err)
		}
	}
	return d, w.Services[services]
}

// publishPair is one publish and one withdrawal of a name the directory
// does not hold: two snapshots, and the directory ends as it began.
func publishPair(tb testing.TB, d *Directory, fresh *profile.Service) {
	if err := d.Register(fresh); err != nil {
		tb.Fatal(err)
	}
	if !d.Deregister(fresh.Name) {
		tb.Fatal("fresh service was not registered")
	}
}

// TestRegisterCostIndependentOfSize is the guard on the publish path that
// does not depend on how fast the host is: what one Register plus one
// Deregister allocates must not grow with the directory. Ten times the
// services may cost at most half as much again — in allocations outright,
// and in bytes once the one term that is linear by design is set aside,
// the flat copy of the snapshot's graph pointer list (8 bytes per graph
// per publish; see snapshot.go).
func TestRegisterCostIndependentOfSize(t *testing.T) {
	type cost struct{ allocs, bytes, graphListBytes float64 }
	measure := func(services int) cost {
		d, fresh := sizedDirectory(t, services, false)
		if st := d.Stats(); st.Graphs < services*9/10 {
			t.Fatalf("%d services made %d graphs; the sparse shape should be nearly all singletons", services, st.Graphs)
		}
		const runs = 50
		publishPair(t, d, fresh)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			publishPair(t, d, fresh)
		}
		runtime.ReadMemStats(&after)
		return cost{
			allocs:         testing.AllocsPerRun(runs, func() { publishPair(t, d, fresh) }),
			bytes:          float64(after.TotalAlloc-before.TotalAlloc) / runs,
			graphListBytes: 2 * 8 * float64(d.NumGraphs()),
		}
	}
	small, large := measure(200), measure(2000)
	t.Logf("200 services: %.0f allocs, %.0f B (graph list %.0f B); 2000 services: %.0f allocs, %.0f B (graph list %.0f B)",
		small.allocs, small.bytes, small.graphListBytes, large.allocs, large.bytes, large.graphListBytes)
	if large.allocs > 1.5*small.allocs {
		t.Errorf("a publish pair allocates %.0f times at 2000 services, %.0f at 200: more than 1.5x", large.allocs, small.allocs)
	}
	if l, s := large.bytes-large.graphListBytes, small.bytes-small.graphListBytes; l > 1.5*s {
		t.Errorf("beyond the graph pointer list a publish pair allocates %.0f B at 2000 services, %.0f B at 200: more than 1.5x", l, s)
	}
}

// BenchmarkRegisterAtSize times that publish pair against directories of
// both shapes and growing size; per-op time and allocations should be
// flat down the sparse column (Fig. 8's "insert is nearly constant",
// far past the sizes the paper measured) and grow only with the size of
// the one graph touched down the dense one.
func BenchmarkRegisterAtSize(b *testing.B) {
	for _, shape := range []string{"sparse", "dense"} {
		for _, services := range []int{200, 2000, 8000} {
			b.Run(fmt.Sprintf("%s/services=%d", shape, services), func(b *testing.B) {
				d, fresh := sizedDirectory(b, services, shape == "dense")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					publishPair(b, d, fresh)
				}
			})
		}
	}
}
