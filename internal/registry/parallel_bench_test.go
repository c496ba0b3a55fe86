package registry

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/match"
	"sariadne/internal/profile"
)

// parallelFixture builds one populated directory plus a rotation of
// requests derived from stored advertisements, the same workload shape
// benchfig's Figure 9 uses.
func parallelFixture(tb testing.TB, services int) (*Directory, []*profile.Capability) {
	tb.Helper()
	w := gen.MustNewWorkload(gen.WorkloadConfig{
		Ontologies:           22,
		Services:             services,
		InputsPerCapability:  5,
		OutputsPerCapability: 3,
		Seed:                 42,
	})
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		tb.Fatal(err)
	}
	d := NewDirectory(match.NewCodeMatcher(reg))
	for _, svc := range w.Services {
		if err := d.Register(svc); err != nil {
			tb.Fatal(err)
		}
	}
	reqs := make([]*profile.Capability, 0, 8)
	for i := 0; i < 8; i++ {
		reqs = append(reqs, w.Request((services/8)*i%services, 1))
	}
	return d, reqs
}

// BenchmarkParallelDiscovery measures concurrent Query throughput on a
// populated directory. With the lock-free snapshot read path, per-op time
// should stay roughly flat as parallelism grows (near-linear aggregate
// throughput up to GOMAXPROCS); under a mutex-guarded read path it
// degrades as every query serializes on the same lock.
func BenchmarkParallelDiscovery(b *testing.B) {
	d, reqs := parallelFixture(b, 100)
	maxProcs := runtime.GOMAXPROCS(0)
	procList := []int{1, 2, 4}
	if maxProcs > 4 {
		procList = append(procList, maxProcs)
	}
	for _, procs := range procList {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.SetParallelism(1)
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if res := d.Query(reqs[i%len(reqs)]); len(res) == 0 {
						b.Fatal("request must match")
					}
					i++
				}
			})
		})
	}
}

// BenchmarkParallelDiscoveryMixed adds a 1:64 writer stream (service
// re-registrations) to the parallel query load, exercising the
// copy-on-write publish path under read concurrency.
func BenchmarkParallelDiscoveryMixed(b *testing.B) {
	d, reqs := parallelFixture(b, 100)
	w := gen.MustNewWorkload(gen.WorkloadConfig{
		Ontologies:           22,
		Services:             100,
		InputsPerCapability:  5,
		OutputsPerCapability: 3,
		Seed:                 42,
	})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%64 == 63 {
				if err := d.Register(w.Services[i%len(w.Services)]); err != nil {
					b.Fatal(err)
				}
			} else if res := d.Query(reqs[i%len(reqs)]); len(res) == 0 {
				b.Fatal("request must match")
			}
			i++
		}
	})
}

// TestParallelDiscoveryRace drives concurrent queries against concurrent
// register/deregister churn; run under -race it proves the read path
// needs no locks. It doubles as the CI race smoke for the parallel
// benchmark workload.
func TestParallelDiscoveryRace(t *testing.T) {
	d, reqs := parallelFixture(t, 60)
	w := gen.MustNewWorkload(gen.WorkloadConfig{
		Ontologies:           22,
		Services:             60,
		InputsPerCapability:  5,
		OutputsPerCapability: 3,
		Seed:                 42,
	})
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				d.Query(reqs[(g+i)%len(reqs)])
				d.Stats()
				d.OntologyKeys()
				// Every snapshot a reader can load mid-churn is whole: its
				// counters equal what its graphs enumerate, its key list is
				// sorted and duplicate-free, its index lists its own graphs.
				if err := checkSnapshotConsistent(d.snap.Load()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			svc := w.Services[i%len(w.Services)]
			if i%3 == 0 {
				d.Deregister(svc.Name)
			} else if err := d.Register(svc); err != nil {
				t.Errorf("register: %v", err)
			}
		}
	}()
	wg.Wait()
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
