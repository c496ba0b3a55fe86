package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/discovery"
	"sariadne/internal/election"
	"sariadne/internal/gen"
	"sariadne/internal/sdpapi"
	"sariadne/internal/simnet"
)

// driver abstracts the system under load: an in-process simnet federation
// or a live sdpd cluster addressed over the wire.
type driver interface {
	// publish registers (or lease-refreshes) an advertisement from the
	// given issuing-node index.
	publish(ctx context.Context, node int, doc []byte) error
	// query resolves a request and reports hit and unreachable counts.
	query(ctx context.Context, node int, doc []byte) (hits, unreachable int, err error)
	// churn crashes or restarts a node (no-op on live clusters).
	churn(node int, down bool)
	close()
}

// cluster is the simnet-backed driver: a grid of discovery nodes with
// self-elected directories, the same substrate sdpsim drives.
type cluster struct {
	net   *simnet.Network
	ids   []simnet.NodeID
	nodes []*discovery.Node
}

// gridDims picks the smallest near-square grid holding at least n nodes.
func gridDims(n int) (rows, cols int) {
	rows = int(math.Sqrt(float64(n)))
	if rows < 1 {
		rows = 1
	}
	cols = (n + rows - 1) / rows
	return rows, cols
}

// buildCluster boots rows x cols discovery nodes, waits for directory
// elections to settle, and preloads every workload service (node i%N
// publishes service i), so measurement starts against a warm directory
// backbone with summaries exchanged.
func buildCluster(w *gen.Workload, reg *codes.Registry, rows, cols int, seed int64) (*cluster, error) {
	nw := simnet.New(simnet.Config{Seed: seed})
	eps, err := simnet.BuildGrid(nw, "n", rows, cols)
	if err != nil {
		nw.Close()
		return nil, err
	}
	cfg := discovery.Config{
		QueryTimeout:     time.Second,
		TickInterval:     2 * time.Millisecond,
		AnnounceInterval: 50 * time.Millisecond,
		// Unbounded forwarding keeps hit sets independent of which nodes
		// won their elections, so fault-free runs are reproducible.
		MaxForwardPeers: 0,
		Election: election.Config{
			AdvertiseInterval: 20 * time.Millisecond,
			AdvertiseTTL:      2,
			ElectionTimeout:   80 * time.Millisecond,
			CandidacyWait:     30 * time.Millisecond,
		},
	}
	c := &cluster{net: nw}
	for _, ep := range eps {
		id := ep.ID()
		nc := cfg
		nc.Election.Score = func() election.Score {
			return election.Score{Coverage: len(nw.Neighbors(id)), Resources: 0.5, Willing: true}
		}
		n := discovery.NewNode(ep, discovery.NewSemanticBackend(reg), nc)
		n.Start(context.Background())
		c.ids = append(c.ids, id)
		c.nodes = append(c.nodes, n)
	}
	if err := c.settle(10 * time.Second); err != nil {
		c.close()
		return nil, err
	}
	if err := c.preload(w); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// settle waits until every node knows a directory.
func (c *cluster) settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := 0
		for _, n := range c.nodes {
			if _, ok := n.DirectoryID(); ok {
				ready++
			}
		}
		if ready == len(c.nodes) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d/%d nodes without a directory after %s",
				len(c.nodes)-ready, len(c.nodes), timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// preload publishes every workload service round-robin across the nodes,
// retrying while elections finish re-homing registrations.
func (c *cluster) preload(w *gen.Workload) error {
	for i, doc := range w.ServiceDocs {
		node := c.nodes[i%len(c.nodes)]
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			err = node.Publish(ctx, doc)
			cancel()
			if err == nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("cluster: preload service %d: %w", i, err)
		}
	}
	return nil
}

func (c *cluster) publish(ctx context.Context, node int, doc []byte) error {
	return c.nodes[node%len(c.nodes)].Publish(ctx, doc)
}

func (c *cluster) query(ctx context.Context, node int, doc []byte) (int, int, error) {
	res, err := c.nodes[node%len(c.nodes)].DiscoverResult(ctx, doc)
	if err != nil {
		return 0, 0, err
	}
	return len(res.Hits), len(res.Unreachable), nil
}

func (c *cluster) churn(node int, down bool) {
	c.net.SetNodeDown(c.ids[node%len(c.ids)], down)
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Stop()
	}
	c.net.Close()
}

// liveCluster drives real sdpd daemons over their UDP client protocol:
// one sdpapi.Client per target, each op on its own ephemeral socket so
// concurrent workers cannot cross replies.
type liveCluster struct {
	targets []sdpapi.Client
}

func newLiveCluster(targets []string, timeout time.Duration, token string) *liveCluster {
	sort.Strings(targets)
	l := &liveCluster{}
	for _, addr := range targets {
		l.targets = append(l.targets, sdpapi.Client{Addr: addr, Timeout: timeout, Token: token})
	}
	return l
}

func (l *liveCluster) send(node int, req sdpapi.Request) (*sdpapi.Response, error) {
	resp, err := l.targets[node%len(l.targets)].Do(req)
	if err != nil {
		return nil, err
	}
	return resp, resp.Err()
}

func (l *liveCluster) publish(_ context.Context, node int, doc []byte) error {
	_, err := l.send(node, sdpapi.Request{Op: sdpapi.OpRegister, Doc: string(doc)})
	return err
}

func (l *liveCluster) query(_ context.Context, node int, doc []byte) (int, int, error) {
	resp, err := l.send(node, sdpapi.Request{Op: sdpapi.OpQuery, Doc: string(doc)})
	if err != nil {
		return 0, 0, err
	}
	return len(resp.Hits), len(resp.Unreachable), nil
}

func (l *liveCluster) churn(int, bool) {} // cannot crash remote daemons

func (l *liveCluster) close() {}
