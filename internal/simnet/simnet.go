// Package simnet simulates the hybrid wireless network S-Ariadne is
// deployed on: nodes joined by bidirectional links (the ad hoc topology),
// hop-limited broadcast (the paper's vicinity advertisements and election
// messages), multi-hop unicast routing, link churn, message loss and
// per-hop latency.
//
// The paper evaluates on real devices in a MANET; this simulator is the
// substitution documented in DESIGN.md: the discovery and election
// protocols only require hop-limited broadcast and unicast with observable
// hop counts, which the simulator provides deterministically (seeded), so
// protocol behaviour — who is elected, where queries are forwarded, how
// much traffic is generated — is preserved and measurable.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sariadne/internal/transport"
)

// Common errors.
var (
	// ErrUnknownNode is returned when addressing an unregistered node.
	ErrUnknownNode = errors.New("simnet: unknown node")
	// ErrNoRoute is returned by Send when no path exists to the target.
	ErrNoRoute = errors.New("simnet: no route to node")
	// ErrClosed is returned after the network has been shut down.
	ErrClosed = errors.New("simnet: network closed")
	// ErrDuplicateNode is returned when adding an existing node ID.
	ErrDuplicateNode = errors.New("simnet: duplicate node")
)

// NodeID identifies a node in the network. It is the protocol's address
// type, so a *Endpoint satisfies transport.Endpoint as it is.
type NodeID = transport.Addr

// Message is a delivered payload with routing metadata.
type Message = transport.Message

// Config parameterizes the simulation.
type Config struct {
	// LatencyPerHop delays delivery by Hops × LatencyPerHop. Zero (the
	// default) delivers synchronously, which keeps tests deterministic.
	LatencyPerHop time.Duration
	// DropRate is the probability that a single link traversal loses the
	// message. Zero means a reliable network.
	DropRate float64
	// QueueSize bounds each node's inbox; deliveries to a full inbox are
	// dropped and counted. Defaults to 128.
	QueueSize int
	// Seed makes loss and jitter reproducible. Defaults to 1.
	Seed int64
	// Rand, when non-nil, supplies the randomness source directly and
	// takes precedence over Seed. Injecting one generator lets an
	// experiment share a single seeded stream across its network and
	// workload. The network serializes access under its own mutex, so the
	// caller must not use the generator concurrently afterwards.
	Rand *rand.Rand
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 128
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Stats aggregates traffic counters, the "generated traffic" axis of the
// paper's efficiency argument.
type Stats struct {
	UnicastsSent       uint64
	BroadcastsSent     uint64
	MessagesDelivered  uint64
	MessagesDropped    uint64 // lost to link drops
	MessagesOverflowed uint64 // lost to full inboxes
	LinkTraversals     uint64
	FaultDrops         uint64 // drops attributed to an injected fault (bursts, link overrides, down nodes)
	PartitionBlocks    uint64 // sends refused because an active partition cut every route
}

// Network is the simulated topology. All methods are safe for concurrent
// use.
type Network struct {
	mu         sync.Mutex
	cfg        Config
	rng        *rand.Rand                     // guarded by mu
	nodes      map[NodeID]*Endpoint           // guarded by mu
	links      map[NodeID]map[NodeID]struct{} // guarded by mu
	stats      Stats                          // guarded by mu
	closed     bool                           // guarded by mu
	faults     *faultState                    // guarded by mu
	manualDown map[NodeID]bool                // guarded by mu
	wg         sync.WaitGroup
}

// New returns an empty network.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return &Network{
		cfg:        cfg,
		rng:        rng,
		nodes:      make(map[NodeID]*Endpoint),
		links:      make(map[NodeID]map[NodeID]struct{}),
		manualDown: make(map[NodeID]bool),
	}
}

// Endpoint is a node's attachment to the network.
type Endpoint struct {
	id    NodeID
	net   *Network
	inbox chan Message
}

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() NodeID { return e.id }

// Inbox exposes the delivery channel for select-based consumers.
func (e *Endpoint) Inbox() <-chan Message { return e.inbox }

// Recv blocks until a message arrives or the context is done.
func (e *Endpoint) Recv(ctx context.Context) (Message, error) {
	select {
	case msg, ok := <-e.inbox:
		if !ok {
			return Message{}, ErrClosed
		}
		return msg, nil
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// AddNode registers a node and returns its endpoint.
func (n *Network) AddNode(id NodeID) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	}
	e := &Endpoint{id: id, net: n, inbox: make(chan Message, n.cfg.QueueSize)}
	n.nodes[id] = e
	n.links[id] = make(map[NodeID]struct{})
	return e, nil
}

// RemoveNode detaches a node and all its links (a device leaving the
// network). Its inbox is closed.
func (n *Network) RemoveNode(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.nodes[id]
	if !ok {
		return
	}
	delete(n.nodes, id)
	for peer := range n.links[id] {
		delete(n.links[peer], id)
	}
	delete(n.links, id)
	close(e.inbox)
}

// Connect adds a bidirectional link between two registered nodes.
func (n *Network) Connect(a, b NodeID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[a]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, a)
	}
	if _, ok := n.nodes[b]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, b)
	}
	if a == b {
		return nil
	}
	n.links[a][b] = struct{}{}
	n.links[b][a] = struct{}{}
	return nil
}

// Disconnect removes the link between two nodes (mobility/churn).
func (n *Network) Disconnect(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[a]; ok {
		delete(l, b)
	}
	if l, ok := n.links[b]; ok {
		delete(l, a)
	}
}

// Neighbors returns the sorted direct neighbors of a node.
func (n *Network) Neighbors(id NodeID) []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeID, 0, len(n.links[id]))
	for peer := range n.links[id] {
		out = append(out, peer)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Nodes returns the sorted IDs of all registered nodes.
func (n *Network) Nodes() []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Close shuts the network down: all inboxes are closed after in-flight
// delayed deliveries finish, and further sends fail with ErrClosed.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, e := range n.nodes {
		close(e.inbox)
	}
}

// Send routes a unicast message along a shortest usable path to the
// target. The per-link drop probability (base rate, link-fault overrides
// and burst windows) applies to every link on the path; a dropped message
// is silently lost (the network is unreliable by design) but counted in
// Stats. Messages from or to a crashed node are silently lost too — a
// dead radio, not an error the sender can observe. Send fails only when
// the network is closed, the target is the sender itself (a node delivers
// to itself; like the socket transports, the network carries frames
// between different nodes only), the nodes are unknown, or no usable
// route exists (including routes cut by an active partition).
func (e *Endpoint) Send(to NodeID, payload any) error {
	n := e.net
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if to == e.id {
		n.mu.Unlock()
		return fmt.Errorf("simnet: %s: send to own address", to)
	}
	if _, ok := n.nodes[e.id]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, e.id)
	}
	target, ok := n.nodes[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	now := time.Now()
	if n.nodeDownLocked(e.id, now) || n.nodeDownLocked(to, now) {
		n.stats.MessagesDropped++
		n.stats.FaultDrops++
		dropsTotal.Inc()
		faultDropsTotal.Inc()
		n.mu.Unlock()
		return nil
	}
	path, reachable := n.pathLocked(e.id, to, now, true)
	if !reachable {
		// Distinguish "partitioned" from "physically unreachable" for the
		// fault counters: a route that exists without faults was blocked
		// by the plan.
		if _, physical := n.pathLocked(e.id, to, now, false); physical {
			n.stats.PartitionBlocks++
			partitionBlocksTotal.Inc()
		}
		n.mu.Unlock()
		return fmt.Errorf("%w: %s -> %s", ErrNoRoute, e.id, to)
	}
	hops := len(path) - 1
	n.stats.UnicastsSent++
	n.stats.LinkTraversals += uint64(hops)
	unicastsTotal.Inc()
	traversalsTotal.Add(uint64(hops))
	unicastHops.ObserveInt(int64(hops))
	// Per-link loss and latency along the path.
	var extra time.Duration
	for i := 0; i+1 < len(path); i++ {
		drop, lat, faulted := n.linkConditionsLocked(path[i], path[i+1], now)
		extra += lat
		if drop > 0 && n.rng.Float64() < drop {
			n.stats.MessagesDropped++
			dropsTotal.Inc()
			if faulted {
				n.stats.FaultDrops++
				faultDropsTotal.Inc()
			}
			n.mu.Unlock()
			return nil
		}
	}
	msg := Message{From: e.id, To: to, Hops: hops, Payload: payload}
	n.deliverLocked(target, msg, time.Duration(hops)*n.cfg.LatencyPerHop+extra)
	n.mu.Unlock()
	return nil
}

// Broadcast floods a message up to ttl hops from the sender (the sender
// itself does not receive it). It returns the number of nodes the message
// reached. Crashed nodes neither receive nor relay; partitioned links do
// not propagate the flood.
func (e *Endpoint) Broadcast(ttl int, payload any) (int, error) {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return 0, ErrClosed
	}
	if _, ok := n.nodes[e.id]; !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownNode, e.id)
	}
	now := time.Now()
	if n.nodeDownLocked(e.id, now) {
		// A crashed sender's broadcast reaches nobody; it is not an error
		// the (crashed) caller can act on.
		return 0, nil
	}
	n.stats.BroadcastsSent++
	broadcastsTotal.Inc()
	reached := 0
	visited := map[NodeID]int{e.id: 0}
	frontier := []NodeID{e.id}
	for depth := 1; depth <= ttl && len(frontier) > 0; depth++ {
		var next []NodeID
		for _, u := range frontier {
			for v := range n.links[u] {
				if _, seen := visited[v]; seen {
					continue
				}
				if !n.usableLinkLocked(u, v, now) {
					continue
				}
				n.stats.LinkTraversals++
				traversalsTotal.Inc()
				drop, lat, faulted := n.linkConditionsLocked(u, v, now)
				if drop > 0 && n.rng.Float64() < drop {
					n.stats.MessagesDropped++
					dropsTotal.Inc()
					if faulted {
						n.stats.FaultDrops++
						faultDropsTotal.Inc()
					}
					continue
				}
				visited[v] = depth
				next = append(next, v)
				msg := Message{From: e.id, To: v, Hops: depth, Broadcast: true, Payload: payload}
				n.deliverLocked(n.nodes[v], msg, time.Duration(depth)*n.cfg.LatencyPerHop+lat)
				reached++
			}
		}
		frontier = next
	}
	return reached, nil
}

// deliverLocked hands a message to an inbox after the given delay,
// honoring queue bounds. A target that crashed or left the network by
// delivery time loses the message. Callers hold n.mu.
func (n *Network) deliverLocked(target *Endpoint, msg Message, delay time.Duration) {
	if delay > 0 {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			time.Sleep(delay)
			n.mu.Lock()
			defer n.mu.Unlock()
			if _, ok := n.nodes[target.id]; !ok {
				n.stats.MessagesDropped++
				dropsTotal.Inc()
				return
			}
			if n.nodeDownLocked(target.id, time.Now()) {
				n.stats.MessagesDropped++
				n.stats.FaultDrops++
				dropsTotal.Inc()
				faultDropsTotal.Inc()
				return
			}
			select {
			case target.inbox <- msg:
				n.stats.MessagesDelivered++
				deliveredTotal.Inc()
			default:
				n.stats.MessagesOverflowed++
				overflowsTotal.Inc()
			}
		}()
		return
	}
	select {
	case target.inbox <- msg:
		n.stats.MessagesDelivered++
		deliveredTotal.Inc()
	default:
		n.stats.MessagesOverflowed++
		overflowsTotal.Inc()
	}
}

// HopDistance returns the current hop count between two nodes along
// usable links (active faults included).
func (n *Network) HopDistance(from, to NodeID) (int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[from]; !ok {
		return 0, false
	}
	if _, ok := n.nodes[to]; !ok {
		return 0, false
	}
	path, ok := n.pathLocked(from, to, time.Now(), true)
	if !ok {
		return 0, false
	}
	return len(path) - 1, true
}

// NodesWithin returns all nodes at most ttl hops from the origin along
// usable links, excluding the origin, sorted by ID.
func (n *Network) NodesWithin(origin NodeID, ttl int) []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	var out []NodeID
	visited := map[NodeID]bool{origin: true}
	frontier := []NodeID{origin}
	for depth := 1; depth <= ttl && len(frontier) > 0; depth++ {
		var next []NodeID
		for _, u := range frontier {
			for v := range n.links[u] {
				if visited[v] || !n.usableLinkLocked(u, v, now) {
					continue
				}
				visited[v] = true
				next = append(next, v)
				out = append(out, v)
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
