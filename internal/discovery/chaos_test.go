package discovery

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"sariadne/internal/election"
	"sariadne/internal/simnet"
	"sariadne/internal/testutil"
)

// Chaos suite: scripted fault plans over the simulated network, with
// fixed seeds so a failing run reproduces. The scenarios mirror the
// failure modes the paper's hybrid MANETs exhibit: congestion bursts,
// partitions that heal, and directory crashes.

// leakCheck fails the test if goroutines outlive the cluster teardown.
// Registered before the cluster so its cleanup runs after the nodes and
// network have been stopped.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		testutil.WaitFor(t, 3*time.Second, func() bool {
			return runtime.NumGoroutine() <= before
		}, "goroutines to drain after teardown (leaked: %d -> %d)",
			before, runtime.NumGoroutine())
	})
}

// chaosCluster builds the chaos topology: a star whose center n0 is the
// query entry directory with an empty store, and whose leaves n1 and n2
// are redundant directories both holding the workstation advertisement.
// The backbone handshake and publications complete on a clean network;
// the caller injects faults afterwards.
func chaosCluster(t *testing.T, seed int64, retries int, queryTimeout time.Duration) (*simnet.Network, []*Node) {
	t.Helper()
	leakCheck(t)
	net := simnet.New(simnet.Config{Seed: seed})
	t.Cleanup(net.Close)
	eps, err := simnet.BuildStar(net, "n", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QueryTimeout:     queryTimeout,
		TickInterval:     2 * time.Millisecond,
		AnnounceInterval: 100 * time.Millisecond,
		ForwardRetries:   retries,
		RetryBackoff:     3 * time.Millisecond,
		RetryBackoffMax:  12 * time.Millisecond,
		Election: election.Config{
			AdvertiseInterval: 20 * time.Millisecond,
			AdvertiseTTL:      2,
			ElectionTimeout:   time.Hour, // promotions are manual here
		},
	}
	nodes := make([]*Node, len(eps))
	for i, ep := range eps {
		nodes[i] = NewNode(ep, NewSemanticBackend(fixtureRegistry(t)), cfg)
		nodes[i].Start(context.Background())
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	for _, n := range nodes {
		n.BecomeDirectory()
	}
	waitUntil(t, 3*time.Second, "backbone handshake", func() bool {
		return len(nodes[0].Peers()) == 2
	})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	for _, i := range []int{1, 2} {
		if err := nodes[i].Publish(ctx, workstationDoc(t)); err != nil {
			t.Fatalf("publish at n%d: %v", i, err)
		}
	}
	// n0 must see summaries that admit the request, or it would prune the
	// very peers holding the answer.
	key := probeKey(t, nodes[0].backend, pdaRequestDoc(t))
	waitUntil(t, 3*time.Second, "content summaries at n0", func() bool {
		nodes[0].mu.Lock()
		defer nodes[0].mu.Unlock()
		for _, id := range []simnet.NodeID{"n1", "n2"} {
			ps := nodes[0].peers[id]
			if ps == nil || ps.filter == nil || !ps.filter.Test(key) {
				return false
			}
		}
		return true
	})
	return net, nodes
}

// chaosPlan is the pinned acceptance scenario: 30% burst loss for the
// whole run plus a partition isolating directory n2, healed at half time.
func chaosPlan() simnet.FaultPlan {
	return simnet.FaultPlan{
		Bursts: []simnet.Burst{{Drop: 0.3}},
		Partitions: []simnet.Partition{{
			Name:   "isolate-n2",
			Groups: [][]simnet.NodeID{{"n0", "n1"}, {"n2"}},
			Heal:   1200 * time.Millisecond,
		}},
	}
}

func partitionActive(net *simnet.Network) bool {
	for _, f := range net.ActiveFaults() {
		if strings.HasPrefix(f, "partition:") {
			return true
		}
	}
	return false
}

// chaosQueryRun issues total queries through the chaos plan: as many as
// the partitioned first half allows, the remainder after the heal. It
// reports per-phase outcomes.
type chaosOutcome struct {
	total, successes int
	partialSeen      bool // a reply carried the unreachable marker
	healedComplete   bool // a post-heal reply was complete with hits
}

func chaosQueryRun(t *testing.T, net *simnet.Network, nodes []*Node, total int) chaosOutcome {
	t.Helper()
	var out chaosOutcome
	query := func() (Result, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
		defer cancel()
		return nodes[0].DiscoverResult(ctx, pdaRequestDoc(t))
	}
	record := func(res Result, err error) {
		out.total++
		if err == nil && len(res.Hits) > 0 {
			out.successes++
		}
		if res.Partial() {
			out.partialSeen = true
		}
	}
	net.ApplyFaultPlan(chaosPlan())
	for partitionActive(net) && out.total < total/2 {
		record(query())
	}
	// Healed half: wait for n2 to rejoin the backbone view (it may have
	// been evicted during the partition; the periodic announces re-add it)
	// before resuming, so the second phase exercises both directories.
	waitUntil(t, 5*time.Second, "n2 re-admitted after heal", func() bool {
		if partitionActive(net) {
			return false
		}
		for _, id := range nodes[0].Peers() {
			if id == "n2" {
				return true
			}
		}
		return false
	})
	for out.total < total {
		res, err := query()
		record(res, err)
		if err == nil && !res.Partial() && len(res.Hits) > 0 {
			out.healedComplete = true
		}
	}
	return out
}

// TestChaosPartitionBurstRetries is the acceptance scenario: under 30%
// burst loss with n2 partitioned away for the first half, retrying and
// degrading gracefully keeps the query success rate at 99%+, partial
// results carry the unreachable marker, and results are complete again
// after the heal.
func TestChaosPartitionBurstRetries(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			net, nodes := chaosCluster(t, seed, 8, 400*time.Millisecond)
			out := chaosQueryRun(t, net, nodes, 100)
			rate := float64(out.successes) / float64(out.total)
			t.Logf("seed=%d: %d/%d queries succeeded (%.1f%%)", seed, out.successes, out.total, 100*rate)
			if rate < 0.99 {
				t.Errorf("success rate %.3f < 0.99 with retries enabled", rate)
			}
			if !out.partialSeen {
				t.Error("no reply carried the unreachable marker while n2 was partitioned")
			}
			if !out.healedComplete {
				t.Error("no complete result observed after the partition healed")
			}
			st := nodes[0].Stats()
			if st.ForwardRetries == 0 {
				t.Error("retries enabled but none recorded under 30% loss")
			}
			if st.PartialReplies == 0 {
				t.Error("partial replies seen by client but not counted by the directory")
			}
		})
	}
}

// TestChaosRetriesDisabledDegrades runs the same scenario with retries
// off: one lost packet costs the remote result set, so the success rate
// collapses — the before/after pair for EXPERIMENTS.md.
func TestChaosRetriesDisabledDegrades(t *testing.T) {
	// QueryTimeout 100ms keeps the run short: with fire-and-forget, any
	// lost reply stalls the query for the full timeout (exactly the
	// failure mode the retry machinery removes).
	net, nodes := chaosCluster(t, 42, -1, 100*time.Millisecond)
	out := chaosQueryRun(t, net, nodes, 60)
	rate := float64(out.successes) / float64(out.total)
	t.Logf("retries disabled: %d/%d queries succeeded (%.1f%%)", out.successes, out.total, 100*rate)
	if rate >= 0.90 {
		t.Errorf("success rate %.3f with retries disabled; expected measurable degradation (< 0.90)", rate)
	}
	if rate == 0 {
		t.Error("zero successes: degradation should be partial, not total")
	}
}

// TestChaosDirectoryCrashMidQuery crashes the only directory while a
// query is in flight: the query fails cleanly, the survivors re-run the
// election, the publisher re-registers at the new directory, and
// discovery recovers without restarting anything.
func TestChaosDirectoryCrashMidQuery(t *testing.T) {
	leakCheck(t)
	net := simnet.New(simnet.Config{Seed: 3})
	t.Cleanup(net.Close)
	ids := []simnet.NodeID{"n0", "n1", "n2"}
	eps := make([]*simnet.Endpoint, len(ids))
	for i, id := range ids {
		ep, err := net.AddNode(id)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	// Full triangle so the survivors stay connected when n1 crashes.
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if err := net.Connect(ids[i], ids[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := Config{
		QueryTimeout: 200 * time.Millisecond,
		TickInterval: 2 * time.Millisecond,
		Election: election.Config{
			AdvertiseInterval: 20 * time.Millisecond,
			AdvertiseTTL:      2,
			ElectionTimeout:   150 * time.Millisecond,
			CandidacyWait:     30 * time.Millisecond,
		},
	}
	nodes := make([]*Node, len(eps))
	for i, ep := range eps {
		nodes[i] = NewNode(ep, NewSemanticBackend(fixtureRegistry(t)), cfg)
		nodes[i].Start(context.Background())
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	nodes[1].BecomeDirectory()
	waitUntil(t, 3*time.Second, "n1 adopted as directory", func() bool {
		d0, ok0 := nodes[0].DirectoryID()
		d2, ok2 := nodes[2].DirectoryID()
		return ok0 && ok2 && d0 == "n1" && d2 == "n1"
	})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := nodes[0].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	if hits, err := nodes[2].Discover(ctx, pdaRequestDoc(t)); err != nil || len(hits) != 1 {
		t.Fatalf("pre-crash discovery: hits=%v err=%v", hits, err)
	}

	// Crash the directory and immediately query into the void: the call
	// must fail by its own deadline, not wedge.
	net.SetNodeDown("n1", true)
	qctx, qcancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	_, err := nodes[2].Discover(qctx, pdaRequestDoc(t))
	qcancel()
	if err == nil {
		t.Fatal("query into a crashed directory succeeded")
	}

	// Recovery: a survivor wins the re-run election, solicits
	// re-registration, and the capability is discoverable again.
	waitUntil(t, 10*time.Second, "discovery to recover after re-election", func() bool {
		qctx, qcancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer qcancel()
		hits, err := nodes[2].Discover(qctx, pdaRequestDoc(t))
		return err == nil && len(hits) >= 1
	})
	if d, ok := nodes[2].DirectoryID(); !ok || d == "n1" {
		t.Fatalf("directory after recovery = %q, %v; want a survivor", d, ok)
	}
}

// TestChaosRepublishSolicitRestoresCrashedStore is the crash-with-state-
// loss case republishIfMoved cannot see: the directory keeps its identity
// but loses its store, so on re-election its RepublishSolicit must make
// publishers re-register even though their publishedAt never changed.
func TestChaosRepublishSolicitRestoresCrashedStore(t *testing.T) {
	leakCheck(t)
	_, nodes := testCluster(t, 2)
	nodes[1].BecomeDirectory()
	waitUntil(t, 2*time.Second, "n0 adopted n1", func() bool {
		d, ok := nodes[0].DirectoryID()
		return ok && d == "n1"
	})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := nodes[0].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: the store evaporates, the identity survives.
	for name := range nodes[1].Backend().Snapshot() {
		nodes[1].Backend().Deregister(name)
	}
	nodes[1].RefreshSummary()
	if hits, err := nodes[0].Discover(ctx, pdaRequestDoc(t)); err != nil || len(hits) != 0 {
		t.Fatalf("wiped directory still answers: hits=%v err=%v", hits, err)
	}

	// Re-election of the same identity triggers the solicit broadcast.
	nodes[1].BecomeDirectory()
	waitUntil(t, 3*time.Second, "store restored by solicited republication", func() bool {
		qctx, qcancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer qcancel()
		hits, err := nodes[0].Discover(qctx, pdaRequestDoc(t))
		return err == nil && len(hits) == 1
	})
}
