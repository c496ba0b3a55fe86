package discovery

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sariadne/internal/election"
	"sariadne/internal/simnet"
)

// TestPropertyChaosEventualDiscovery is the liveness property behind the
// robustness layer: under ANY generated fault plan whose every window
// eventually closes (partitions heal, bursts drain, crashed nodes
// restart), every published capability becomes discoverable again. The
// generator draws partitions, burst loss up to 50%, and churn of either
// directory; testing/quick shrinks the seed space on failure.
func TestPropertyChaosEventualDiscovery(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is slow")
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := simnet.New(simnet.Config{Seed: seed})
		defer net.Close()
		eps, err := simnet.BuildStar(net, "n", 3)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			QueryTimeout:     200 * time.Millisecond,
			TickInterval:     2 * time.Millisecond,
			AnnounceInterval: 50 * time.Millisecond,
			ForwardRetries:   6,
			RetryBackoff:     3 * time.Millisecond,
			RetryBackoffMax:  12 * time.Millisecond,
			Election: election.Config{
				AdvertiseInterval: 20 * time.Millisecond,
				AdvertiseTTL:      2,
				ElectionTimeout:   time.Hour,
			},
		}
		nodes := make([]*Node, len(eps))
		for i, ep := range eps {
			nodes[i] = NewNode(ep, NewSemanticBackend(fixtureRegistry(t)), cfg)
			nodes[i].Start(context.Background())
		}
		defer func() {
			for _, n := range nodes {
				n.Stop()
			}
		}()
		for _, n := range nodes {
			n.BecomeDirectory()
		}
		setup, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		deadlineReached := func(cond func() bool) bool {
			for !cond() {
				if setup.Err() != nil {
					return true
				}
				qctx, qcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				<-qctx.Done() // paced re-check without busy spinning
				qcancel()
			}
			return false
		}
		if deadlineReached(func() bool { return len(nodes[0].Peers()) == 2 }) {
			t.Logf("seed=%d: backbone handshake never completed", seed)
			return false
		}
		// The capability under test lives at n1 only.
		if err := nodes[1].Publish(setup, workstationDoc(t)); err != nil {
			t.Logf("seed=%d: publish: %v", seed, err)
			return false
		}
		key := probeKey(t, nodes[0].backend, pdaRequestDoc(t))
		if deadlineReached(func() bool {
			nodes[0].mu.Lock()
			defer nodes[0].mu.Unlock()
			ps := nodes[0].peers["n1"]
			return ps != nil && ps.filter != nil && ps.filter.Test(key)
		}) {
			t.Logf("seed=%d: n1 summary never reached n0", seed)
			return false
		}

		// A random, always-healing fault plan.
		window := func(max time.Duration) (at, until time.Duration) {
			at = time.Duration(rng.Intn(50)) * time.Millisecond
			until = at + time.Duration(1+rng.Intn(int(max/time.Millisecond)))*time.Millisecond
			return at, until
		}
		var plan simnet.FaultPlan
		if rng.Intn(2) == 0 {
			at, heal := window(400 * time.Millisecond)
			cut := simnet.NodeID([]string{"n1", "n2"}[rng.Intn(2)])
			var rest []simnet.NodeID
			for _, id := range []simnet.NodeID{"n0", "n1", "n2"} {
				if id != cut {
					rest = append(rest, id)
				}
			}
			plan.Partitions = append(plan.Partitions, simnet.Partition{
				Name: "cut", Groups: [][]simnet.NodeID{rest, {cut}}, At: at, Heal: heal,
			})
		}
		if rng.Intn(2) == 0 {
			at, until := window(300 * time.Millisecond)
			plan.Bursts = append(plan.Bursts, simnet.Burst{Drop: rng.Float64() * 0.5, At: at, Until: until})
		}
		if rng.Intn(2) == 0 {
			at, until := window(300 * time.Millisecond)
			plan.Churn = append(plan.Churn, simnet.Churn{
				Node: simnet.NodeID([]string{"n1", "n2"}[rng.Intn(2)]), DownAt: at, UpAt: until,
			})
		}
		net.ApplyFaultPlan(plan)

		// Query throughout the turbulence; after every window closes, the
		// capability must be found again within the recovery budget.
		rbudget, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer rcancel()
		for {
			qctx, qcancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			hits, err := nodes[0].Discover(qctx, pdaRequestDoc(t))
			qcancel()
			if len(net.ActiveFaults()) == 0 && err == nil && len(hits) >= 1 {
				return true
			}
			if rbudget.Err() != nil {
				t.Logf("seed=%d: capability not rediscovered after plan %v drained (last: hits=%d err=%v)",
					seed, plan, len(hits), err)
				return false
			}
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}
