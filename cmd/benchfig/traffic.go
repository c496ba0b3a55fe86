package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/discovery"
	"sariadne/internal/election"
	"sariadne/internal/gen"
	"sariadne/internal/profile"
	"sariadne/internal/simnet"
)

// traffic measures the full S-Ariadne protocol over the simulated MANET:
// a 5×5 grid with four static directories, services published from the
// corners, queries issued from every node — reporting end-to-end response
// time, message counts and Bloom-pruning effectiveness. This is the
// protocol-level complement to Figure 10's directory-local measurement.
// trafficTraceSample carries the -trace-sample flag into the protocol
// config, so the sampled-tracing overhead can be A/B measured by running
// the same traffic workload with the sampler on and off.
var trafficTraceSample int

func traffic(maxServices, step, reps int) {
	fmt.Printf("%-10s %14s %12s %12s %10s %10s\n",
		"services", "avg response", "unicasts", "broadcasts", "forwards", "pruned")
	for n := step; n <= maxServices; n += step {
		w := gen.MustNewWorkload(gen.WorkloadConfig{
			Ontologies:           22,
			Services:             n,
			InputsPerCapability:  5,
			OutputsPerCapability: 3,
			Seed:                 42,
		})
		reg, err := w.Registry(codes.DefaultParams)
		if err != nil {
			log.Fatal(err)
		}

		net := simnet.New(simnet.Config{Seed: 7})
		eps, err := simnet.BuildGrid(net, "n", 5, 5)
		if err != nil {
			log.Fatal(err)
		}
		cfg := discovery.Config{
			QueryTimeout:     500 * time.Millisecond,
			TickInterval:     2 * time.Millisecond,
			AnnounceInterval: 50 * time.Millisecond,
			TraceSampleEvery: trafficTraceSample,
			Election: election.Config{
				AdvertiseInterval: 20 * time.Millisecond,
				AdvertiseTTL:      2,
				ElectionTimeout:   time.Hour, // static deployment below
			},
		}
		nodes := make([]*discovery.Node, len(eps))
		for i, ep := range eps {
			nodes[i] = discovery.NewNode(ep, discovery.NewSemanticBackend(reg), cfg)
			nodes[i].Start(context.Background())
		}
		// Directories at the four quadrant centers of the grid.
		for _, i := range []int{6, 8, 16, 18} {
			nodes[i].BecomeDirectory()
		}
		waitCond(5*time.Second, func() bool {
			for _, nd := range nodes {
				if _, ok := nd.DirectoryID(); !ok {
					return false
				}
			}
			return true
		})

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		publishers := []int{0, 4, 20, 24, 12}
		for i, doc := range w.ServiceDocs {
			if err := nodes[publishers[i%len(publishers)]].Publish(ctx, doc); err != nil {
				log.Fatalf("publish %d: %v", i, err)
			}
		}
		// Let summaries settle.
		time.Sleep(100 * time.Millisecond)

		statsBefore := net.Stats()
		var nodeBefore []discovery.Stats
		for _, nd := range nodes {
			nodeBefore = append(nodeBefore, nd.Stats())
		}

		var total time.Duration
		queries := 0
		for r := 0; r < reps; r++ {
			from := nodes[r%len(nodes)]
			reqDoc, err := profile.Marshal(&profile.Service{
				Name:     fmt.Sprintf("req%d", r),
				Required: []*profile.Capability{w.Request(r%n, 1)},
			})
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			hits, err := from.Discover(ctx, reqDoc)
			if err != nil {
				log.Fatalf("discover: %v", err)
			}
			if len(hits) > 0 {
				total += time.Since(start)
				queries++
			}
		}
		statsAfter := net.Stats()
		var forwards, pruned uint64
		for i, nd := range nodes {
			st := nd.Stats()
			forwards += st.ForwardsSent - nodeBefore[i].ForwardsSent
			pruned += st.ForwardsPruned - nodeBefore[i].ForwardsPruned
		}
		avg := time.Duration(0)
		if queries > 0 {
			avg = total / time.Duration(queries)
		}
		fmt.Printf("%-10d %14s %12d %12d %10d %10d\n",
			n, avg,
			statsAfter.UnicastsSent-statsBefore.UnicastsSent,
			statsAfter.BroadcastsSent-statsBefore.BroadcastsSent,
			forwards, pruned)

		cancel()
		for _, nd := range nodes {
			nd.Stop()
		}
		net.Close()
	}
}

func waitCond(timeout time.Duration, cond func() bool) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatal("benchfig: timeout waiting for protocol convergence")
}
