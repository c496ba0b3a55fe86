package sariadne

import (
	"context"
	"time"

	"sariadne/internal/discovery"
	"sariadne/internal/election"
	"sariadne/internal/simnet"
)

// NetworkConfig parameterizes a simulated pervasive network and the
// protocol nodes running on it.
type NetworkConfig struct {
	// LatencyPerHop simulates radio latency; zero keeps delivery
	// synchronous.
	LatencyPerHop time.Duration
	// DropRate is the per-link message loss probability.
	DropRate float64
	// Seed makes the simulation reproducible.
	Seed int64
	// Election tunes directory self-deployment; zero values use protocol
	// defaults.
	Election ElectionConfig
	// QueryTimeout bounds cross-directory query forwarding.
	QueryTimeout time.Duration
	// AnnounceInterval re-broadcasts directory backbone announcements
	// (default 500ms).
	AnnounceInterval time.Duration
	// MaxForwardPeers bounds query fan-out across directories,
	// nearest-first (0 = unbounded).
	MaxForwardPeers int
	// LeaseTTL expires advertisements that stop being refreshed (soft
	// state); 0 disables. Publishers refresh automatically at
	// LeaseTTL/3.
	LeaseTTL time.Duration
}

// Network is a simulated pervasive network populated by S-Ariadne nodes.
// Create one with System.NewNetwork, add nodes, link them, then Start.
type Network struct {
	sys   *System
	cfg   NetworkConfig
	net   *simnet.Network
	nodes map[NodeID]*Node
}

// NewNetwork creates an empty simulated network bound to this system's
// ontologies.
func (s *System) NewNetwork(cfg NetworkConfig) *Network {
	return &Network{
		sys: s,
		cfg: cfg,
		net: simnet.New(simnet.Config{
			LatencyPerHop: cfg.LatencyPerHop,
			DropRate:      cfg.DropRate,
			Seed:          cfg.Seed,
		}),
		nodes: make(map[NodeID]*Node),
	}
}

// Node is one device participating in discovery: it can publish its own
// services, discover others', and may be (or become, via election) a
// directory for its vicinity.
type Node struct {
	inner *discovery.Node
}

// AddNode registers a device on the network.
func (n *Network) AddNode(id NodeID) (*Node, error) {
	ep, err := n.net.AddNode(id)
	if err != nil {
		return nil, err
	}
	cfg := discovery.Config{
		Election:         n.cfg.Election,
		QueryTimeout:     n.cfg.QueryTimeout,
		AnnounceInterval: n.cfg.AnnounceInterval,
		MaxForwardPeers:  n.cfg.MaxForwardPeers,
		LeaseTTL:         n.cfg.LeaseTTL,
	}
	if cfg.Election.Score == nil {
		// The paper elects directories on network coverage, mobility and
		// remaining resources; with a simulator the live neighbor count is
		// the natural coverage signal.
		net := n.net
		cfg.Election.Score = func() election.Score {
			return election.Score{
				Coverage:  len(net.Neighbors(id)),
				Resources: 0.5,
				Willing:   true,
			}
		}
	}
	node := &Node{inner: discovery.NewNode(ep, discovery.NewSemanticBackend(n.sys.reg), cfg)}
	n.nodes[id] = node
	return node, nil
}

// Link connects two nodes with a bidirectional radio link.
func (n *Network) Link(a, b NodeID) error { return n.net.Connect(a, b) }

// Unlink removes the link between two nodes (mobility).
func (n *Network) Unlink(a, b NodeID) { n.net.Disconnect(a, b) }

// RemoveNode detaches a node entirely (device leaving). The node's loop
// should be stopped by the caller via Network.Stop or ctx cancellation.
func (n *Network) RemoveNode(id NodeID) {
	if node, ok := n.nodes[id]; ok {
		node.inner.Stop()
		delete(n.nodes, id)
	}
	n.net.RemoveNode(id)
}

// Start launches every node's protocol loop.
func (n *Network) Start(ctx context.Context) {
	for _, node := range n.nodes {
		node.inner.Start(ctx)
	}
}

// Stop shuts every node down and closes the network.
func (n *Network) Stop() {
	for _, node := range n.nodes {
		node.inner.Stop()
	}
	n.net.Close()
}

// Node returns a previously added node.
func (n *Network) Node(id NodeID) (*Node, bool) {
	node, ok := n.nodes[id]
	return node, ok
}

// Stats exposes the underlying traffic counters.
func (n *Network) Stats() simnet.Stats { return n.net.Stats() }

// ID returns the node's network identity.
func (nd *Node) ID() NodeID { return nd.inner.ID() }

// BecomeDirectory promotes the node to a directory immediately (static
// deployment); with elections enabled promotion can also happen on its
// own.
func (nd *Node) BecomeDirectory() { nd.inner.BecomeDirectory() }

// IsDirectory reports whether the node currently acts as a directory.
func (nd *Node) IsDirectory() bool { return nd.inner.Role() == election.Directory }

// DirectoryID returns the directory this node currently uses.
func (nd *Node) DirectoryID() (NodeID, bool) { return nd.inner.DirectoryID() }

// Publish registers a service description with the node's vicinity
// directory; the node re-publishes automatically after directory churn.
func (nd *Node) Publish(ctx context.Context, svc *Service) error {
	doc, err := MarshalService(svc)
	if err != nil {
		return err
	}
	return nd.inner.Publish(ctx, doc)
}

// Discover resolves the required capabilities of the given service
// description (its Required list) through the discovery protocol.
func (nd *Node) Discover(ctx context.Context, request *Service) ([]Hit, error) {
	doc, err := MarshalService(request)
	if err != nil {
		return nil, err
	}
	return nd.inner.Discover(ctx, doc)
}

// StepDown gracefully retires the node's directory role, transferring its
// cached advertisements to the named successor directory.
func (nd *Node) StepDown(successor NodeID) error {
	return nd.inner.StepDown(successor)
}

// Deregister withdraws a previously published service from the node's
// directory.
func (nd *Node) Deregister(ctx context.Context, service string) error {
	return nd.inner.Deregister(ctx, service)
}

// DiscoverCapability is a convenience wrapper building a one-capability
// request.
func (nd *Node) DiscoverCapability(ctx context.Context, req *Capability) ([]Hit, error) {
	return nd.Discover(ctx, &Service{
		Name:     "request-" + string(nd.ID()),
		Required: []*Capability{req},
	})
}
