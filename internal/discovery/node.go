package discovery

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"sariadne/internal/bloom"
	"sariadne/internal/election"
	"sariadne/internal/telemetry"
	"sariadne/internal/transport"
)

// Protocol errors.
var (
	// ErrNoDirectory is returned when a node knows no directory to talk to.
	ErrNoDirectory = errors.New("discovery: no directory known")
	// ErrNotDirectory is reported by a node asked to serve while not being
	// a directory (transient during elections).
	ErrNotDirectory = errors.New("discovery: node is not a directory")
)

// Config parameterizes a discovery node.
type Config struct {
	// Election configures directory self-deployment. Zero values get the
	// election package defaults.
	Election election.Config
	// StaticDirectory pins the node to a fixed directory and disables the
	// election timeout machinery (infrastructure mode).
	StaticDirectory transport.Addr
	// QueryTimeout bounds the wait for remote directories when a query is
	// forwarded. Defaults to 2s.
	QueryTimeout time.Duration
	// AnnounceTTL is the hop radius for directory backbone announcements;
	// it should exceed the election vicinity. Defaults to 8.
	AnnounceTTL int
	// BloomBits and BloomHashes shape content summaries. Defaults: 1024, 4.
	BloomBits   int
	BloomHashes int
	// AnnounceInterval re-broadcasts a directory's backbone announcement,
	// repairing handshakes missed during concurrent elections. Defaults to
	// 500ms.
	AnnounceInterval time.Duration
	// MaxForwardPeers bounds how many peer directories an unresolved query
	// is forwarded to, chosen nearest-first (the paper selects forwarding
	// targets by Bloom filter, distance and remaining resources). Zero
	// means no bound.
	MaxForwardPeers int
	// ForwardRetries bounds retransmissions per forward after the first
	// attempt; a forward is abandoned (and the peer marked unreachable in
	// the reply) once they are exhausted. Defaults to 2; negative disables
	// retries and hedging entirely, restoring fire-and-forget forwarding
	// where pending forwards wait out the full QueryTimeout.
	ForwardRetries int
	// RetryBackoff is the delay before the first retransmission of a
	// forward with no reply; it doubles per attempt up to RetryBackoffMax.
	// Defaults to QueryTimeout/8.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential retransmission backoff.
	// Defaults to QueryTimeout/2.
	RetryBackoffMax time.Duration
	// HedgeSpares allows dispatching the query to up to this many
	// next-best peers that MaxForwardPeers cut off, when a forward reaches
	// its first retransmission without even an ack. Zero disables hedging.
	HedgeSpares int
	// PeerFailureLimit evicts a peer from the backbone view after this
	// many consecutive forwards that were abandoned without any sign of
	// life (no ack, no reply); a reply resets the count. Defaults to 3;
	// negative disables eviction.
	PeerFailureLimit int
	// StaleRatio triggers a reactive summary refresh: when more than this
	// fraction of a peer's Bloom-selected forwards come back empty (false
	// positives), the peer is asked for a fresh summary (Section 4's
	// reactive exchange). Defaults to 0.5; negative disables.
	StaleRatio float64
	// LeaseTTL expires advertisements that have not been refreshed
	// (soft state). Zero disables expiry.
	LeaseTTL time.Duration
	// RefreshInterval makes nodes re-publish their own services
	// periodically so leases stay fresh. Defaults to LeaseTTL/3 when
	// leases are enabled.
	RefreshInterval time.Duration
	// TickInterval is the loop timer resolution. Defaults to 10ms.
	TickInterval time.Duration
	// TraceSampleEvery turns on always-on sampled tracing: every Nth
	// origin query dispatched through Discover/DiscoverResult carries a
	// trace ID as if DiscoverTrace had been called, and its merged span
	// tree is deposited into the flight recorder. Defaults to 64;
	// negative disables sampling.
	TraceSampleEvery int
	// SlowQueryThreshold retains queries whose end-to-end latency reaches
	// it: a traced slow query's record is flagged slow, and an untraced
	// one deposits a spanless record and arms a latch so the next query
	// is traced. Defaults to QueryTimeout/2; negative disables.
	SlowQueryThreshold time.Duration
	// Recorder receives retained traces and protocol events. Nil uses
	// the process-wide telemetry.FlightRecorder(); tests inject private
	// recorders.
	Recorder *telemetry.Recorder
}

func (c Config) withDefaults() Config {
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 2 * time.Second
	}
	if c.AnnounceTTL <= 0 {
		c.AnnounceTTL = 8
	}
	if c.BloomBits <= 0 {
		c.BloomBits = 1024
	}
	if c.BloomHashes <= 0 {
		c.BloomHashes = 4
	}
	if c.AnnounceInterval <= 0 {
		c.AnnounceInterval = 500 * time.Millisecond
	}
	if c.StaleRatio == 0 {
		c.StaleRatio = 0.5
	}
	if c.ForwardRetries == 0 {
		c.ForwardRetries = 2
	} else if c.ForwardRetries < 0 {
		c.ForwardRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = c.QueryTimeout / 8
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = c.QueryTimeout / 2
	}
	if c.PeerFailureLimit == 0 {
		c.PeerFailureLimit = 3
	} else if c.PeerFailureLimit < 0 {
		c.PeerFailureLimit = 0
	}
	if c.LeaseTTL > 0 && c.RefreshInterval <= 0 {
		c.RefreshInterval = c.LeaseTTL / 3
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 10 * time.Millisecond
	}
	if c.TraceSampleEvery == 0 {
		c.TraceSampleEvery = 64
	} else if c.TraceSampleEvery < 0 {
		c.TraceSampleEvery = 0
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = c.QueryTimeout / 2
	} else if c.SlowQueryThreshold < 0 {
		c.SlowQueryThreshold = 0
	}
	if c.Recorder == nil {
		c.Recorder = telemetry.FlightRecorder()
	}
	return c
}

// Stats counts protocol activity on one node.
type Stats struct {
	Registrations    uint64
	QueriesServed    uint64 // queries answered from the local store
	QueriesForwarded uint64 // origin queries fanned out to peers
	ForwardsSent     uint64 // peer directories contacted
	ForwardsPruned   uint64 // peers skipped thanks to Bloom summaries
	RemoteHits       uint64 // hits contributed by peers
	ForwardRetries   uint64 // forwards retransmitted after a silent backoff
	ForwardAcks      uint64 // forward acknowledgements received
	ForwardHedges    uint64 // queries hedged to a spare peer
	ForwardGiveups   uint64 // forwards abandoned after exhausting retries
	PeersEvicted     uint64 // peers dropped after consecutive give-ups
	PartialReplies   uint64 // final replies sent with an unreachable marker
}

// Node is one participant of the discovery protocol: always a potential
// client (Publish/Discover), sometimes an elected or static directory.
type Node struct {
	ep      transport.Transport
	backend Backend
	cfg     Config

	mu    sync.Mutex
	elect *election.Machine // guarded by mu
	// filter summarizes the backend's keys as of its last mutation. Its
	// bits are always what every peer has been sent: summaryChanged pushes
	// before it returns whenever they move.
	filter *bloom.Filter // guarded by mu
	// sentCount is the advertisement count the last push to every peer
	// carried. When the backend's has moved away from it under unchanged
	// bits, the next tick pushes once for all such mutations since.
	sentCount   int                           // guarded by mu
	peers       map[transport.Addr]*peerState // guarded by mu
	published   map[string][]byte             // guarded by mu
	publishedAt transport.Addr                // guarded by mu
	nextID      uint64                        // guarded by mu
	queryWait   map[uint64]chan QueryReply    // guarded by mu
	regWait     map[uint64]chan RegisterReply // guarded by mu
	aggregates  map[uint64]*aggregation       // guarded by mu
	// leases tracks, per registered service, when its advertisement was
	// last (re)registered; stale ones are swept when LeaseTTL is set.
	leases       map[string]time.Time // guarded by mu
	lastAnnounce time.Time            // guarded by mu
	lastRefresh  time.Time            // guarded by mu
	stats        Stats                // guarded by mu
	// sampleCount counts origin queries for the 1-in-N trace sampler;
	// traceNext is the slow-query latch: set when an untraced query came
	// back slow, so the next query is traced regardless of the sampler.
	sampleCount uint64 // guarded by mu
	traceNext   bool   // guarded by mu

	cancel context.CancelFunc // guarded by mu
	done   chan struct{}      // guarded by mu
}

// peerState is what a directory knows about a backbone peer: its latest
// Bloom summary, its hop distance (observed from received messages, used
// to rank forwarding targets), forwarding outcome counters driving the
// reactive summary refresh, and a consecutive-give-up count driving
// eviction of peers that stopped responding entirely.
type peerState struct {
	filter       *bloom.Filter
	entries      int // service count carried by the latest summary
	hops         int
	forwards     int
	empties      int
	failures     int
	lastAnnounce time.Time // last DirectoryAnnounce or SummaryPush heard
}

// forwardState is the per-peer retransmission state machine for one
// forwarded query: attempt counting with capped exponential backoff until
// a reply arrives (done), the retries are exhausted, or the aggregation
// deadline passes (failed). An ack proves the peer alive — it suppresses
// hedging and the eviction counter — but does not stop retransmissions,
// because a lost reply is only recovered by the duplicate request
// provoking a re-answer.
type forwardState struct {
	attempts  int
	acked     bool
	done      bool // a reply arrived
	failed    bool // gave up waiting
	nextRetry time.Time
	backoff   time.Duration
}

// aggregation tracks one origin query fanned out to peer directories.
type aggregation struct {
	origin   transport.Addr
	originID uint64
	trace    uint64
	doc      []byte // the forwarded remainder, kept for retransmissions
	deadline time.Time
	forwards map[transport.Addr]*forwardState
	// spares are ranked peers MaxForwardPeers cut off, available for
	// hedged re-dispatch when a forward goes silent.
	spares      []transport.Addr
	hedges      int
	hits        []Hit
	unreachable []transport.Addr
	spans       []telemetry.Span // mutated under the owning node's mu
}

// pending reports whether any forward is still awaiting a reply.
func (a *aggregation) pending() bool {
	for _, fs := range a.forwards {
		if !fs.done && !fs.failed {
			return true
		}
	}
	return false
}

// outMsg is a message staged under the lock for sending after release.
type outMsg struct {
	to      transport.Addr
	payload any
}

// NewNode creates a discovery node over an endpoint and backend. The
// endpoint may be a bare *simnet.Endpoint (simulations, tests) or any
// transport.Transport (UDP/TCP federation); either way the node speaks
// only the transport interface.
func NewNode(ep transport.Endpoint, backend Backend, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		ep:         transport.Wrap(ep),
		backend:    backend,
		cfg:        cfg,
		elect:      election.NewMachine(ep.ID(), cfg.Election, time.Now()),
		filter:     bloom.MustNew(cfg.BloomBits, cfg.BloomHashes),
		peers:      make(map[transport.Addr]*peerState),
		published:  make(map[string][]byte),
		queryWait:  make(map[uint64]chan QueryReply),
		regWait:    make(map[uint64]chan RegisterReply),
		aggregates: make(map[uint64]*aggregation),
		leases:     make(map[string]time.Time),
	}
	return n
}

// ID returns the node's network ID.
func (n *Node) ID() transport.Addr { return n.ep.ID() }

// Backend returns the node's directory backend.
func (n *Node) Backend() Backend { return n.backend }

// Stats returns a snapshot of the node's protocol counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Role returns the node's current election role.
func (n *Node) Role() election.Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.elect.Role()
}

// DirectoryID returns the directory this node currently uses.
func (n *Node) DirectoryID() (transport.Addr, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.directoryLocked()
}

func (n *Node) directoryLocked() (transport.Addr, bool) {
	if n.cfg.StaticDirectory != "" && n.elect.Role() != election.Directory {
		return n.cfg.StaticDirectory, true
	}
	return n.elect.Directory()
}

// Peers returns the directory peers this node knows about (meaningful on
// directories).
func (n *Node) Peers() []transport.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]transport.Addr, 0, len(n.peers))
	for id := range n.peers {
		out = append(out, id)
	}
	return out
}

// PeerInfo is one directory peer as seen by this node's protocol layer,
// for diagnostics surfaces (sdpd's GET /peers, sdpctl peers). Transport
// socket stats live one layer down in transport.Peer; this view carries
// what the discovery protocol itself knows.
type PeerInfo struct {
	// Addr is the peer's transport address.
	Addr transport.Addr `json:"addr"`
	// LastAnnounce is when this peer last announced itself or pushed a
	// summary (zero when it never has).
	LastAnnounce time.Time `json:"last_announce,omitzero"`
	// Failures counts consecutive forwards to this peer abandoned with no
	// sign of life; PeerFailureLimit of them evict the peer.
	Failures int `json:"failures"`
	// HasSummary reports whether a Bloom summary from this peer is held.
	HasSummary bool `json:"has_summary"`
	// Entries is the service count the latest summary advertised.
	Entries int `json:"entries"`
	// Hops is the observed network distance to the peer.
	Hops int `json:"hops"`
}

// PeerInfos returns a snapshot of the node's backbone view, sorted by
// address.
func (n *Node) PeerInfos() []PeerInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]PeerInfo, 0, len(n.peers))
	for id, ps := range n.peers {
		out = append(out, PeerInfo{
			Addr:         id,
			LastAnnounce: ps.lastAnnounce,
			Failures:     ps.failures,
			HasSummary:   ps.filter != nil,
			Entries:      ps.entries,
			Hops:         ps.hops,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// RefreshSummary tells the node that the backend changed behind its
// back. Embedders that register services directly on the backend —
// sdpd's client front ends do — call this after every mutation so remote
// directories' views keep up; see summaryChanged for what reaches the
// peers before it returns.
func (n *Node) RefreshSummary() { n.summaryChanged() }

// Start launches the protocol loop.
func (n *Node) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	n.mu.Lock()
	n.cancel = cancel
	n.done = done
	n.mu.Unlock()
	go n.loop(ctx, done)
}

// Stop terminates the loop and waits for it.
func (n *Node) Stop() {
	n.mu.Lock()
	cancel, done := n.cancel, n.done
	n.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		<-done
	}
}

// BecomeDirectory promotes the node immediately (static deployment) and
// announces it to the backbone.
func (n *Node) BecomeDirectory() {
	n.mu.Lock()
	actions := n.elect.BecomeDirectory(time.Now())
	n.mu.Unlock()
	n.runElectionActions(actions)
}

func (n *Node) loop(ctx context.Context, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(n.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case msg, ok := <-n.ep.Inbox():
			if !ok {
				return
			}
			n.handleMessage(msg)
		case <-ticker.C:
			n.tick()
		}
	}
}

// tick drives election timers (unless statically configured), aggregation
// deadlines and re-publication.
func (n *Node) tick() {
	now := time.Now()
	var electionActions []any
	announce := false
	n.mu.Lock()
	if n.cfg.StaticDirectory == "" {
		electionActions = n.elect.Tick(now)
	} else if n.elect.Role() == election.Directory {
		electionActions = n.elect.Tick(now) // keep advertising
	}
	if n.elect.Role() == election.Directory && now.Sub(n.lastAnnounce) >= n.cfg.AnnounceInterval {
		n.lastAnnounce = now
		announce = true
	}
	resends, finished := n.maintainAggregationsLocked(now)
	pushCount := n.backend.Len() != n.sentCount
	n.mu.Unlock()

	if pushCount {
		n.pushSummary()
	}
	if announce {
		_, _ = n.ep.Broadcast(n.cfg.AnnounceTTL, DirectoryAnnounce{From: n.ID()})
	}

	n.runElectionActions(electionActions)
	n.send(resends)
	for _, agg := range finished {
		n.finishAggregation(agg)
	}
	n.sweepLeases(now)
	n.refreshOwnLeases(now)
	n.republishIfMoved()
}

// sweepLeases expires advertisements whose lease ran out (soft state:
// departed devices silently disappear from the directory).
func (n *Node) sweepLeases(now time.Time) {
	if n.cfg.LeaseTTL <= 0 {
		return
	}
	n.mu.Lock()
	var stale []string
	for svc, at := range n.leases {
		if now.Sub(at) > n.cfg.LeaseTTL {
			stale = append(stale, svc)
			delete(n.leases, svc)
		}
	}
	n.mu.Unlock()
	if len(stale) == 0 {
		return
	}
	for _, svc := range stale {
		n.backend.Deregister(svc)
	}
	n.summaryChanged()
}

// refreshOwnLeases re-publishes this node's services so their leases stay
// fresh at the directory.
func (n *Node) refreshOwnLeases(now time.Time) {
	if n.cfg.RefreshInterval <= 0 {
		return
	}
	n.mu.Lock()
	if now.Sub(n.lastRefresh) < n.cfg.RefreshInterval || len(n.published) == 0 {
		n.mu.Unlock()
		return
	}
	n.lastRefresh = now
	dir, ok := n.directoryLocked()
	if !ok {
		n.mu.Unlock()
		return
	}
	msgs := n.republishLocked(dir)
	n.mu.Unlock()
	n.send(msgs)
}

// republishLocked stages one RegisterRequest per document this node has
// published, addressed to dir. The caller decides under the same lock
// whether dir is due one, and sends what is staged after releasing it.
func (n *Node) republishLocked(dir transport.Addr) []outMsg {
	msgs := make([]outMsg, 0, len(n.published))
	for _, doc := range n.published {
		n.nextID++
		msgs = append(msgs, outMsg{to: dir, payload: RegisterRequest{ID: n.nextID, Doc: doc}})
	}
	return msgs
}

// send puts staged messages on the wire, best effort.
func (n *Node) send(msgs []outMsg) {
	for _, m := range msgs {
		_ = n.ep.Send(m.to, m.payload)
	}
}

// handleMessage dispatches one inbound message.
func (n *Node) handleMessage(msg transport.Message) {
	switch p := msg.Payload.(type) {
	case RegisterRequest:
		n.onRegister(msg.From, p)
	case RegisterReply:
		n.mu.Lock()
		ch := n.regWait[p.ID]
		delete(n.regWait, p.ID)
		n.mu.Unlock()
		if ch != nil {
			ch <- p
		}
	case DeregisterRequest:
		found := n.backend.Deregister(p.Service)
		n.mu.Lock()
		delete(n.leases, p.Service)
		n.mu.Unlock()
		n.summaryChanged()
		errStr := ""
		if !found {
			errStr = fmt.Sprintf("service %q not registered", p.Service)
		}
		_ = n.ep.Send(msg.From, RegisterReply{ID: p.ID, Err: errStr})
	case QueryRequest:
		n.onQuery(msg.From, p)
	case QueryReply:
		n.onQueryReply(p)
	case ForwardAck:
		n.mu.Lock()
		if agg, ok := n.aggregates[p.ID]; ok {
			if fs, known := agg.forwards[p.From]; known && !fs.acked {
				fs.acked = true
				n.stats.ForwardAcks++
				forwardAcksTotal.Inc()
			}
		}
		n.mu.Unlock()
	case RepublishSolicit:
		n.onSolicit(p)
	case DirectoryAnnounce:
		n.onAnnounce(p)
	case SummaryPush:
		n.onSummary(p, msg.Hops)
	case SummaryRequest:
		n.sendSummary(msg.From)
	default:
		// Election traffic.
		n.mu.Lock()
		actions := n.elect.HandleMessage(msg.From, msg.Payload, time.Now())
		n.mu.Unlock()
		n.runElectionActions(actions)
		n.republishIfMoved()
	}
}

// runElectionActions executes transport actions emitted by the election
// machine and reacts to role changes.
func (n *Node) runElectionActions(actions []any) {
	for _, a := range actions {
		switch act := a.(type) {
		case election.SendAction:
			_ = n.ep.Send(act.To, act.Payload)
		case election.BroadcastAction:
			_, _ = n.ep.Broadcast(act.TTL, act.Payload)
		case election.RoleChange:
			electionTransitionsTotal.Inc()
			n.cfg.Recorder.RecordEvent(string(n.ID()), telemetry.ProtoElection, "", act.Role.String())
			if act.Role == election.Directory {
				// Join the directory backbone and solicit summaries.
				_, _ = n.ep.Broadcast(n.cfg.AnnounceTTL, DirectoryAnnounce{From: n.ID()})
				// Ask the vicinity to re-register: if this node crashed
				// and won re-election with an empty store, publishers
				// believing themselves registered here must re-send.
				_, _ = n.ep.Broadcast(n.cfg.AnnounceTTL, RepublishSolicit{From: n.ID()})
			}
		}
	}
}

// republishIfMoved re-registers this node's own services when its
// directory changed (including when the node itself just became one) —
// the paper's "a new directory has to host the service descriptions
// available in its vicinity".
func (n *Node) republishIfMoved() {
	n.mu.Lock()
	dir, ok := n.directoryLocked()
	if !ok || dir == n.publishedAt || len(n.published) == 0 {
		n.mu.Unlock()
		return
	}
	n.publishedAt = dir
	msgs := n.republishLocked(dir)
	n.mu.Unlock()
	n.send(msgs)
}

// onSolicit re-registers this node's published services at a freshly
// (re-)elected directory. Unlike republishIfMoved this fires even when
// publishedAt already names the soliciting directory — that is exactly
// the crash-and-re-elect case where the directory's store is empty while
// the publishers believe themselves registered.
func (n *Node) onSolicit(s RepublishSolicit) {
	n.mu.Lock()
	dir, ok := n.directoryLocked()
	if !ok || dir != s.From || len(n.published) == 0 {
		n.mu.Unlock()
		return
	}
	n.publishedAt = dir
	msgs := n.republishLocked(dir)
	n.mu.Unlock()
	n.send(msgs)
}

func (n *Node) allocID() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextID++
	return n.nextID
}

// onRegister stores an advertisement (directory side).
func (n *Node) onRegister(from transport.Addr, req RegisterRequest) {
	rep := RegisterReply{ID: req.ID}
	if name, err := n.backend.Register(req.Doc); err != nil {
		rep.Err = err.Error()
	} else {
		rep.Service = name
		n.mu.Lock()
		n.leases[name] = time.Now()
		n.stats.Registrations++
		registrationsTotal.Inc()
		n.mu.Unlock()
		n.summaryChanged()
	}
	_ = n.ep.Send(from, rep)
}

// summaryChanged is the one path from a backend mutation — a publish or
// withdrawal at the embedder's front end, a backbone registration or
// deregistration, a lease sweep, a handover — to the peers' view of this
// directory. It recomputes the Bloom summary from the backend's keys. If
// its bits moved, every peer is sent the new summary before
// summaryChanged returns, so whoever is then told the mutation succeeded
// can be found through any peer at once. If they did not — the set of
// ontology-set keys changes a handful of times in a directory's life, the
// advertisement count with every new publish — only the count peers show
// for diagnostics is stale, and the next tick sends it once for however
// many mutations came in between. A mutation that moves neither, such as
// a lease refresh, sends nothing.
func (n *Node) summaryChanged() {
	f := bloom.MustNew(n.cfg.BloomBits, n.cfg.BloomHashes)
	n.mu.Lock()
	// Under mu, so that of two concurrent mutations the later one's keys
	// are what stays in n.filter.
	for _, k := range n.backend.Keys() {
		f.Add(k)
	}
	moved := !f.Equal(n.filter)
	n.filter = f
	n.mu.Unlock()
	summaryFPRGauge.Set(f.EstimateFPR())
	if moved {
		n.pushSummary()
	}
}

// pushSummary sends the current summary to every known peer.
func (n *Node) pushSummary() {
	n.mu.Lock()
	n.sentCount = n.backend.Len()
	peers := make([]transport.Addr, 0, len(n.peers))
	for id := range n.peers {
		peers = append(peers, id)
	}
	n.mu.Unlock()
	n.sendSummary(peers...)
}

// sendSummary sends the current filter and advertisement count to the
// given directories.
func (n *Node) sendSummary(to ...transport.Addr) {
	if len(to) == 0 {
		return
	}
	n.mu.Lock()
	push := SummaryPush{From: n.ID(), Filter: n.filter.Marshal(), Count: n.backend.Len()}
	n.mu.Unlock()
	summaryPushesTotal.Add(uint64(len(to)))
	for _, id := range to {
		_ = n.ep.Send(id, push)
	}
}

// onAnnounce reacts to a new directory joining the backbone.
func (n *Node) onAnnounce(a DirectoryAnnounce) {
	n.mu.Lock()
	isDir := n.elect.Role() == election.Directory
	if isDir && a.From != n.ID() {
		ps, known := n.peers[a.From]
		if !known {
			ps = &peerState{}
			n.peers[a.From] = ps
			n.cfg.Recorder.RecordEvent(string(n.ID()), telemetry.ProtoPeerUp, string(a.From), "announce")
		}
		ps.lastAnnounce = time.Now()
		// Introduce ourselves with our summary; the peer records us.
		n.mu.Unlock()
		n.sendSummary(a.From)
		return
	}
	n.mu.Unlock()
}

// onSummary records a peer directory's filter and observed distance.
func (n *Node) onSummary(s SummaryPush, hops int) {
	f, err := bloom.Unmarshal(s.Filter)
	if err != nil {
		return
	}
	n.mu.Lock()
	ps, known := n.peers[s.From]
	if !known {
		ps = &peerState{}
		n.peers[s.From] = ps
		n.cfg.Recorder.RecordEvent(string(n.ID()), telemetry.ProtoPeerUp, string(s.From), "summary")
	}
	ps.filter = f
	ps.entries = s.Count
	ps.hops = hops
	ps.lastAnnounce = time.Now()
	// A fresh summary resets the staleness counters.
	ps.forwards, ps.empties = 0, 0
	n.mu.Unlock()
	if !known {
		// First contact from an unknown peer: send our summary back so
		// the relationship is symmetric.
		n.sendSummary(s.From)
	}
}

// onQuery is the directory-side request path: local discovery first; what
// of an origin query the local store left unanswered fans out to the peers
// whose Bloom summaries pass (Section 4, Figure 6). The backend reads the
// document, once; this shell only routes what it returns.
func (n *Node) onQuery(from transport.Addr, q QueryRequest) {
	var spans []telemetry.Span
	if q.Trace != 0 {
		s := telemetry.NewSpan(q.Trace, string(n.ID()), telemetry.EventReceived)
		s.Peer = string(from)
		spans = append(spans, s)
	}
	if q.Forwarded {
		// Ack first, before the possibly slow match: the aggregator needs
		// a fast liveness signal to steer hedging and eviction.
		_ = n.ep.Send(from, ForwardAck{ID: q.ID, From: n.ID()})
	}
	n.mu.Lock()
	isDir := n.elect.Role() == election.Directory
	n.mu.Unlock()
	if !isDir {
		if q.Forwarded {
			// A demoted peer answers partial so the aggregator settles the
			// forward instead of retrying into a node that cannot serve.
			_ = n.ep.Send(from, QueryReply{ID: q.ID, From: n.ID(), Partial: true, Err: ErrNotDirectory.Error(), Spans: spans})
			return
		}
		n.replyQuery(q, from, nil, ErrNotDirectory.Error(), spans)
		return
	}

	matchStart := time.Now()
	hits, rest, keys, err := n.backend.Resolve(q.Doc)
	matchDur := time.Since(matchStart)
	localMatchSeconds.Observe(matchDur)
	if err != nil {
		n.replyQuery(q, from, nil, err.Error(), spans)
		return
	}
	for i := range hits {
		hits[i].Directory = string(n.ID())
	}
	if q.Trace != 0 {
		s := telemetry.NewSpan(q.Trace, string(n.ID()), telemetry.EventLocalMatch)
		s.Hits = len(hits)
		s.Dur = matchDur
		spans = append(spans, s)
	}
	n.mu.Lock()
	n.stats.QueriesServed++
	n.mu.Unlock()
	queriesServedTotal.Inc()

	if q.Forwarded {
		if q.Trace != 0 {
			s := telemetry.NewSpan(q.Trace, string(n.ID()), telemetry.EventReply)
			s.Peer = string(from)
			s.Hits = len(hits)
			spans = append(spans, s)
		}
		_ = n.ep.Send(from, QueryReply{ID: q.ID, From: n.ID(), Partial: true, Hits: hits, Spans: spans})
		return
	}
	if rest == nil {
		n.replyQuery(q, q.Origin, hits, "", spans)
		return
	}

	// Figure 6, step 3: forward what the local store could not answer to
	// the peers whose summaries may hold it.
	targets, spares, pruned := n.selectForwardTargets(keys)
	updateBloomFPR()
	if q.Trace != 0 {
		for _, id := range pruned {
			s := telemetry.NewSpan(q.Trace, string(n.ID()), telemetry.EventBloomPrune)
			s.Peer = string(id)
			spans = append(spans, s)
		}
		for _, id := range targets {
			s := telemetry.NewSpan(q.Trace, string(n.ID()), telemetry.EventForward)
			s.Peer = string(id)
			spans = append(spans, s)
		}
	}
	if len(targets) == 0 {
		n.replyQuery(q, q.Origin, hits, "", spans)
		return
	}
	now := time.Now()
	n.mu.Lock()
	n.stats.QueriesForwarded++
	n.stats.ForwardsSent += uint64(len(targets))
	agg := &aggregation{
		origin:   q.Origin,
		originID: q.ID,
		trace:    q.Trace,
		doc:      rest,
		deadline: now.Add(n.cfg.QueryTimeout),
		forwards: make(map[transport.Addr]*forwardState, len(targets)),
		spares:   spares,
		hits:     hits, // local answers ride along with the remote ones
		spans:    spans,
	}
	n.nextID++
	fwdID := n.nextID
	for _, id := range targets {
		agg.forwards[id] = &forwardState{
			attempts:  1,
			backoff:   n.cfg.RetryBackoff,
			nextRetry: now.Add(n.cfg.RetryBackoff),
		}
	}
	n.aggregates[fwdID] = agg
	n.mu.Unlock()
	queriesForwardedTotal.Inc()
	forwardsSentTotal.Add(uint64(len(targets)))

	for _, id := range targets {
		_ = n.ep.Send(id, QueryRequest{ID: fwdID, Origin: n.ID(), Forwarded: true, Trace: q.Trace, Doc: rest})
	}
}

// selectForwardTargets picks peer directories for an unresolved query:
// Bloom-filtered first, then ranked nearest-first and truncated to
// MaxForwardPeers — the paper's "Bloom filters and additional parameters
// such as ... the distance between the respective directories". keys are
// the probe keys of what is unresolved, one per distinct ontology set: a
// peer whose summary passes none of them cannot hold an answer and is
// pruned and counted; one whose summary passes any, or that has sent no
// summary yet, is a candidate. The ranking breaks hop-count ties by NodeID
// so the order is deterministic regardless of map iteration, which retries,
// hedging, and seeded tests all depend on. Candidates the bound cut off
// come back as spares, in rank order, for hedged re-dispatch.
func (n *Node) selectForwardTargets(keys []string) (targets, spares, pruned []transport.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	type cand struct {
		id   transport.Addr
		hops int
	}
	var cands []cand
	for id, ps := range n.peers {
		if ps.filter != nil && !slices.ContainsFunc(keys, ps.filter.Test) {
			n.stats.ForwardsPruned++
			forwardsPrunedTotal.Inc()
			pruned = append(pruned, id)
			continue
		}
		cands = append(cands, cand{id: id, hops: ps.hops})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].hops != cands[j].hops {
			return cands[i].hops < cands[j].hops
		}
		return cands[i].id < cands[j].id
	})
	if n.cfg.MaxForwardPeers > 0 && len(cands) > n.cfg.MaxForwardPeers {
		for _, c := range cands[n.cfg.MaxForwardPeers:] {
			spares = append(spares, c.id)
		}
		cands = cands[:n.cfg.MaxForwardPeers]
	}
	targets = make([]transport.Addr, 0, len(cands))
	for _, c := range cands {
		n.peers[c.id].forwards++
		targets = append(targets, c.id)
	}
	sort.Slice(pruned, func(i, j int) bool { return pruned[i] < pruned[j] })
	return targets, spares, pruned
}

// onQueryReply routes replies: partial ones feed an aggregation, final
// ones wake a waiting client call.
func (n *Node) onQueryReply(r QueryReply) {
	if r.Partial {
		n.mu.Lock()
		agg, ok := n.aggregates[r.ID]
		if !ok {
			n.mu.Unlock()
			return
		}
		fs, known := agg.forwards[r.From]
		if !known || fs.done {
			// Unsolicited or duplicate (a retransmitted request provokes a
			// re-answer): the first reply already counted.
			n.mu.Unlock()
			return
		}
		fs.done = true
		if r.Err == "" {
			agg.hits = append(agg.hits, r.Hits...)
			n.stats.RemoteHits += uint64(len(r.Hits))
			remoteHitsTotal.Add(uint64(len(r.Hits)))
		} else {
			// The peer answered but could not serve (typically demoted
			// mid-election): its cached content is unavailable, so the
			// final reply must carry the completeness marker.
			agg.unreachable = append(agg.unreachable, r.From)
			if r.Err == ErrNotDirectory.Error() {
				delete(n.peers, r.From)
			}
		}
		agg.spans = append(agg.spans, r.Spans...)
		var askRefresh bool
		emptyForward := false
		if ps, stillPeer := n.peers[r.From]; stillPeer {
			// Any reply proves the peer alive; forget past give-ups.
			ps.failures = 0
			if r.Err == "" && len(r.Hits) == 0 {
				// A Bloom-selected peer with no answer is a false
				// positive; enough of them means the summary went stale
				// (Section 4's reactive exchange trigger).
				ps.empties++
				emptyForward = true
				if n.cfg.StaleRatio > 0 && ps.forwards >= 4 &&
					float64(ps.empties)/float64(ps.forwards) > n.cfg.StaleRatio {
					askRefresh = true
					ps.forwards, ps.empties = 0, 0
				}
			}
		}
		done := !agg.pending()
		if done {
			delete(n.aggregates, r.ID)
		}
		n.mu.Unlock()
		if emptyForward {
			forwardEmptyTotal.Inc()
			updateBloomFPR()
		}
		if askRefresh {
			summaryRefreshesTotal.Inc()
			_ = n.ep.Send(r.From, SummaryRequest{From: n.ID()})
		}
		if done {
			n.finishAggregation(agg)
		}
		return
	}
	n.mu.Lock()
	ch := n.queryWait[r.ID]
	delete(n.queryWait, r.ID)
	n.mu.Unlock()
	if ch != nil {
		ch <- r
	}
}

// maintainAggregationsLocked drives every pending forward's state machine
// one step: retransmit forwards whose backoff window elapsed, hedge to a
// spare peer when a forward reaches its first retransmission without an
// ack, abandon forwards out of retries, and collect aggregations that are
// complete (all forwards answered or abandoned) or past their deadline.
// Messages are staged and sent by the caller after releasing n.mu.
func (n *Node) maintainAggregationsLocked(now time.Time) (resends []outMsg, finished []*aggregation) {
	for id, agg := range n.aggregates {
		if now.After(agg.deadline) {
			for peer, fs := range agg.forwards {
				if !fs.done && !fs.failed {
					n.giveUpForwardLocked(agg, peer, fs, telemetry.ReasonTimeout)
				}
			}
			delete(n.aggregates, id)
			finished = append(finished, agg)
			continue
		}
		for peer, fs := range agg.forwards {
			if fs.done || fs.failed || now.Before(fs.nextRetry) {
				continue
			}
			// Fire-and-forget mode: pending forwards simply wait out the
			// aggregation deadline, as before the retry machinery existed.
			if n.cfg.ForwardRetries == 0 {
				continue
			}
			if fs.attempts > n.cfg.ForwardRetries {
				n.giveUpForwardLocked(agg, peer, fs, telemetry.ReasonRetries)
				continue
			}
			fs.attempts++
			fs.backoff *= 2
			if fs.backoff > n.cfg.RetryBackoffMax {
				fs.backoff = n.cfg.RetryBackoffMax
			}
			fs.nextRetry = now.Add(fs.backoff)
			n.stats.ForwardRetries++
			forwardRetriesTotal.Inc()
			if agg.trace != 0 {
				s := telemetry.NewSpan(agg.trace, string(n.ID()), telemetry.EventRetry)
				s.Peer = string(peer)
				agg.spans = append(agg.spans, s)
			}
			resends = append(resends, outMsg{to: peer, payload: QueryRequest{
				ID: id, Origin: n.ID(), Forwarded: true, Trace: agg.trace, Doc: agg.doc,
			}})
			// First retransmission with no ack: the peer may be gone, so
			// hedge the query to the next-best spare in parallel.
			if fs.attempts == 2 && !fs.acked {
				if m := n.hedgeLocked(agg, id, now); m != nil {
					resends = append(resends, *m)
				}
			}
		}
		if !agg.pending() {
			delete(n.aggregates, id)
			finished = append(finished, agg)
		}
	}
	return resends, finished
}

// hedgeLocked dispatches the aggregation's query to the next spare peer,
// if the hedge budget allows, returning the staged message.
func (n *Node) hedgeLocked(agg *aggregation, id uint64, now time.Time) *outMsg {
	if n.cfg.HedgeSpares <= 0 || agg.hedges >= n.cfg.HedgeSpares {
		return nil
	}
	for len(agg.spares) > 0 {
		peer := agg.spares[0]
		agg.spares = agg.spares[1:]
		if _, dup := agg.forwards[peer]; dup {
			continue
		}
		if ps, known := n.peers[peer]; known {
			ps.forwards++
		}
		agg.hedges++
		agg.forwards[peer] = &forwardState{
			attempts:  1,
			backoff:   n.cfg.RetryBackoff,
			nextRetry: now.Add(n.cfg.RetryBackoff),
		}
		n.stats.ForwardHedges++
		n.stats.ForwardsSent++
		forwardHedgesTotal.Inc()
		forwardsSentTotal.Inc()
		if agg.trace != 0 {
			s := telemetry.NewSpan(agg.trace, string(n.ID()), telemetry.EventHedge)
			s.Peer = string(peer)
			agg.spans = append(agg.spans, s)
		}
		return &outMsg{to: peer, payload: QueryRequest{
			ID: id, Origin: n.ID(), Forwarded: true, Trace: agg.trace, Doc: agg.doc,
		}}
	}
	return nil
}

// giveUpForwardLocked abandons a forward that never produced a reply: the
// peer joins the reply's unreachable marker — its span carrying why the
// forward was abandoned (deadline vs. exhausted retries) — and, if it
// never even acked, its consecutive-failure count grows toward eviction
// from the backbone view.
func (n *Node) giveUpForwardLocked(agg *aggregation, peer transport.Addr, fs *forwardState, reason string) {
	fs.failed = true
	n.stats.ForwardGiveups++
	forwardGiveupsTotal.Inc()
	agg.unreachable = append(agg.unreachable, peer)
	if agg.trace != 0 {
		s := telemetry.NewSpan(agg.trace, string(n.ID()), telemetry.EventUnreach)
		s.Peer = string(peer)
		s.Reason = reason
		agg.spans = append(agg.spans, s)
	}
	n.cfg.Recorder.RecordEvent(string(n.ID()), telemetry.ProtoGiveUp, string(peer), reason)
	if fs.acked {
		return // alive but slow or reply-lossy: not an eviction candidate
	}
	if ps, known := n.peers[peer]; known {
		ps.failures++
		if n.cfg.PeerFailureLimit > 0 && ps.failures >= n.cfg.PeerFailureLimit {
			delete(n.peers, peer)
			n.stats.PeersEvicted++
			peersEvictedTotal.Inc()
			n.cfg.Recorder.RecordEvent(string(n.ID()), telemetry.ProtoPeerEvicted, string(peer),
				fmt.Sprintf("%d consecutive give-ups", ps.failures))
		}
	}
}

// finishAggregation sends the collected hits to the origin client,
// carrying the unreachable-peers marker when forwards were abandoned.
func (n *Node) finishAggregation(agg *aggregation) {
	spans := agg.spans
	if agg.trace != 0 {
		s := telemetry.NewSpan(agg.trace, string(n.ID()), telemetry.EventReply)
		s.Peer = string(agg.origin)
		s.Hits = len(agg.hits)
		spans = append(spans, s)
	}
	sort.Slice(agg.unreachable, func(i, j int) bool { return agg.unreachable[i] < agg.unreachable[j] })
	if len(agg.unreachable) > 0 {
		n.mu.Lock()
		n.stats.PartialReplies++
		n.mu.Unlock()
		partialRepliesTotal.Inc()
	}
	_ = n.ep.Send(agg.origin, QueryReply{
		ID: agg.originID, From: n.ID(), Hits: agg.hits,
		Unreachable: agg.unreachable, Spans: spans,
	})
}

// replyQuery sends a final reply toward the origin.
func (n *Node) replyQuery(q QueryRequest, to transport.Addr, hits []Hit, errStr string, spans []telemetry.Span) {
	if q.Trace != 0 {
		s := telemetry.NewSpan(q.Trace, string(n.ID()), telemetry.EventReply)
		s.Peer = string(to)
		s.Hits = len(hits)
		spans = append(spans, s)
	}
	_ = n.ep.Send(to, QueryReply{ID: q.ID, From: n.ID(), Hits: hits, Err: errStr, Spans: spans})
}

// Publish registers a service advertisement document with this node's
// directory (possibly itself) and waits for the acknowledgement.
func (n *Node) Publish(ctx context.Context, doc []byte) error {
	n.mu.Lock()
	dir, ok := n.directoryLocked()
	if !ok {
		n.mu.Unlock()
		return ErrNoDirectory
	}
	n.nextID++
	id := n.nextID
	ch := make(chan RegisterReply, 1)
	n.regWait[id] = ch
	n.mu.Unlock()

	if err := n.ep.Send(dir, RegisterRequest{ID: id, Doc: doc}); err != nil {
		n.mu.Lock()
		delete(n.regWait, id)
		n.mu.Unlock()
		return err
	}
	select {
	case rep := <-ch:
		if rep.Err != "" {
			return fmt.Errorf("discovery: publish rejected: %s", rep.Err)
		}
		// Remember the doc for re-publication after directory churn, under
		// the name the directory stored it by. What a directory too old to
		// say the name loses cannot be repaired from here.
		if rep.Service != "" {
			n.mu.Lock()
			n.published[rep.Service] = doc
			n.publishedAt = dir
			n.mu.Unlock()
		}
		return nil
	case <-ctx.Done():
		n.mu.Lock()
		delete(n.regWait, id)
		n.mu.Unlock()
		return ctx.Err()
	}
}

// StepDown gracefully retires this node's directory role: its cached
// advertisements are transferred to the named peer directory (the paper's
// scenario for Figure 7 — a departing directory's vicinity content must be
// re-hosted), its summary state is cleared, and the node returns to the
// Member role. The transfer is best-effort: lost registrations are
// repaired later by lease refreshes from the publishers.
func (n *Node) StepDown(successor transport.Addr) error {
	n.mu.Lock()
	if n.elect.Role() != election.Directory {
		n.mu.Unlock()
		return ErrNotDirectory
	}
	n.mu.Unlock()

	docs := n.backend.Snapshot()
	for name, doc := range docs {
		id := n.allocID()
		if err := n.ep.Send(successor, RegisterRequest{ID: id, Doc: doc}); err != nil {
			return fmt.Errorf("discovery: handover of %q: %w", name, err)
		}
		n.backend.Deregister(name)
	}

	n.mu.Lock()
	actions := n.elect.Demote(time.Now())
	n.peers = make(map[transport.Addr]*peerState)
	n.leases = make(map[string]time.Time)
	n.mu.Unlock()
	n.summaryChanged()
	n.runElectionActions(actions)
	return nil
}

// Deregister withdraws a previously published service from this node's
// directory and stops refreshing its lease.
func (n *Node) Deregister(ctx context.Context, service string) error {
	n.mu.Lock()
	dir, ok := n.directoryLocked()
	if !ok {
		n.mu.Unlock()
		return ErrNoDirectory
	}
	delete(n.published, service)
	n.nextID++
	id := n.nextID
	ch := make(chan RegisterReply, 1)
	n.regWait[id] = ch
	n.mu.Unlock()

	if err := n.ep.Send(dir, DeregisterRequest{ID: id, Service: service}); err != nil {
		n.mu.Lock()
		delete(n.regWait, id)
		n.mu.Unlock()
		return err
	}
	select {
	case rep := <-ch:
		if rep.Err != "" {
			return fmt.Errorf("discovery: deregister rejected: %s", rep.Err)
		}
		return nil
	case <-ctx.Done():
		n.mu.Lock()
		delete(n.regWait, id)
		n.mu.Unlock()
		return ctx.Err()
	}
}

// Result is the complete outcome of a discovery call: the hits, the
// hop-level trace for traced queries, and the completeness marker.
type Result struct {
	Hits []Hit
	// Trace is the query's trace ID when it was traced — explicitly via
	// DiscoverTrace, by the 1-in-N sampler, or by the slow-query latch.
	// Zero means untraced. Traced queries are retrievable from the flight
	// recorder under this ID.
	Trace uint64
	// Spans is the hop-level trace (traced queries only).
	Spans []telemetry.Span
	// Unreachable lists peer directories that never answered despite
	// retries; non-empty means remote content may be missing.
	Unreachable []transport.Addr
}

// Partial reports whether the result may be incomplete because some peer
// directories were unreachable.
func (r Result) Partial() bool { return len(r.Unreachable) > 0 }

// Discover resolves a request document through this node's directory and
// returns the hits (best first for semantic backends). Use DiscoverResult
// to also observe the partial-result completeness marker.
func (n *Node) Discover(ctx context.Context, doc []byte) ([]Hit, error) {
	res, err := n.discover(ctx, doc, 0)
	return res.Hits, err
}

// DiscoverResult resolves a request like Discover and returns the full
// Result, including the unreachable-peers completeness marker: under
// partitions or churn the query degrades gracefully to whatever hits
// arrived, flagged Partial instead of failing closed.
func (n *Node) DiscoverResult(ctx context.Context, doc []byte) (Result, error) {
	return n.discover(ctx, doc, 0)
}

// DiscoverTrace resolves a request like DiscoverResult while recording
// the hop-level trace: every directory that touches the query appends
// spans (received, local-match, Bloom prunes, forwards, retries, hedges,
// reply) which come back inside the Result, ordered by recording
// sequence.
func (n *Node) DiscoverTrace(ctx context.Context, doc []byte) (Result, error) {
	return n.discover(ctx, doc, telemetry.NextTraceID())
}

func (n *Node) discover(ctx context.Context, doc []byte, trace uint64) (Result, error) {
	sampled := false
	n.mu.Lock()
	dir, ok := n.directoryLocked()
	if !ok {
		n.mu.Unlock()
		return Result{}, ErrNoDirectory
	}
	if trace == 0 {
		// Always-on sampled tracing: every Nth query carries a trace ID,
		// as does the first query after an untraced one came back slow.
		n.sampleCount++
		if n.traceNext || (n.cfg.TraceSampleEvery > 0 && n.sampleCount%uint64(n.cfg.TraceSampleEvery) == 0) {
			trace = telemetry.NextTraceID()
			sampled = true
			n.traceNext = false
		}
	}
	n.nextID++
	id := n.nextID
	ch := make(chan QueryReply, 1)
	n.queryWait[id] = ch
	n.mu.Unlock()
	if sampled {
		tracesSampledTotal.Inc()
	}

	start := time.Now()
	if err := n.ep.Send(dir, QueryRequest{ID: id, Origin: n.ID(), Trace: trace, Doc: doc}); err != nil {
		n.mu.Lock()
		delete(n.queryWait, id)
		n.mu.Unlock()
		return Result{}, err
	}
	select {
	case rep := <-ch:
		telemetry.SortSpans(rep.Spans)
		res := Result{Hits: rep.Hits, Trace: trace, Spans: rep.Spans, Unreachable: rep.Unreachable}
		n.retainQuery(trace, sampled, start, res)
		if rep.Err != "" {
			return Result{Trace: trace, Spans: rep.Spans}, fmt.Errorf("discovery: query failed: %s", rep.Err)
		}
		return res, nil
	case <-ctx.Done():
		n.mu.Lock()
		delete(n.queryWait, id)
		n.mu.Unlock()
		return Result{}, ctx.Err()
	}
}

// retainQuery deposits a finished origin query into the flight recorder:
// traced queries always, untraced ones only when they came back slow —
// those leave a spanless record and arm the latch that traces the next
// query, so a latency regression starts producing span trees within one
// query of being noticed.
func (n *Node) retainQuery(trace uint64, sampled bool, start time.Time, res Result) {
	dur := time.Since(start)
	querySeconds.Observe(dur)
	slow := n.cfg.SlowQueryThreshold > 0 && dur >= n.cfg.SlowQueryThreshold
	if slow {
		tracesSlowTotal.Inc()
	}
	if trace == 0 {
		if !slow {
			return
		}
		n.mu.Lock()
		n.traceNext = true
		n.mu.Unlock()
		trace = telemetry.NextTraceID()
	}
	n.cfg.Recorder.RecordTrace(telemetry.TraceRecord{
		ID:      trace,
		Node:    string(n.ID()),
		Start:   start,
		Dur:     dur,
		Hits:    len(res.Hits),
		Partial: res.Partial(),
		Sampled: sampled,
		Slow:    slow,
		Spans:   res.Spans,
	})
}
