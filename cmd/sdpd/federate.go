package main

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"sariadne/internal/discovery"
	"sariadne/internal/election"
	"sariadne/internal/sdpapi"
	"sariadne/internal/transport"
)

// federationOptions collects the backbone bootstrap flags.
type federationOptions struct {
	// Listen is the socket address for backbone traffic (distinct from
	// the client-facing -listen port). Empty disables federation.
	Listen string
	// Transport picks the substrate: "udp" (default) or "tcp".
	Transport string
	// Advertise is the backbone address announced to peers; defaults to
	// the bound address, which daemons behind NAT or binding 0.0.0.0 must
	// override with something dialable.
	Advertise string
	// Peers are static seed addresses of other daemons' backbone ports.
	Peers []string
	// TraceSample traces every Nth query into the flight recorder; zero
	// disables sampling (the -trace-sample flag, zero-is-off convention).
	TraceSample int
	// SlowQuery is the retention threshold for slow queries; zero keeps
	// the discovery default (half the query timeout).
	SlowQuery time.Duration
}

// federation is a daemon's membership in a directory backbone: a
// discovery node over a socket transport, sharing the server's backend,
// promoted to directory immediately (daemons are infrastructure — the
// paper's on-the-fly election is for the ad hoc side).
type federation struct {
	node *discovery.Node
	tr   transport.Transport
	log  *slog.Logger
}

// startFederation boots the backbone side of a daemon and rewires the
// server: queries resolve through the federated node (forwarding to
// peers whose Bloom summaries match, degrading to partial results when
// peers die), and client-side mutations tell the node so remote views
// keep up.
func startFederation(srv *server, opts federationOptions, logger *slog.Logger) (*federation, error) {
	var (
		tr  transport.Transport
		err error
	)
	switch opts.Transport {
	case "", "udp":
		tr, err = transport.NewUDP(transport.UDPConfig{
			Listen:    opts.Listen,
			Advertise: opts.Advertise,
			Codec:     discovery.WireCodec{},
			Seeds:     opts.Peers,
		})
	case "tcp":
		tr, err = transport.NewTCP(transport.TCPConfig{
			Listen:    opts.Listen,
			Advertise: opts.Advertise,
			Codec:     discovery.WireCodec{},
			Seeds:     opts.Peers,
		})
	default:
		return nil, fmt.Errorf("unknown federation transport %q (want udp or tcp)", opts.Transport)
	}
	if err != nil {
		return nil, err
	}

	// The flag convention is zero-is-off; the discovery config's is
	// zero-is-default, negative-is-off.
	sampleEvery := opts.TraceSample
	if sampleEvery == 0 {
		sampleEvery = -1
	}
	node := discovery.NewNode(tr, srv.backend, discovery.Config{
		// Daemons never self-elect: the backbone is static infrastructure
		// and election payloads are not wire-encodable anyway.
		Election:           election.Config{ElectionTimeout: 24 * time.Hour},
		TraceSampleEvery:   sampleEvery,
		SlowQueryThreshold: opts.SlowQuery,
	})
	node.Start(context.Background())
	node.BecomeDirectory()

	f := &federation{node: node, tr: tr, log: logger.With("component", "federation")}
	srv.mu.Lock()
	srv.fed = f
	srv.resolve = f.resolveFederated
	srv.mu.Unlock()
	// Journal-recovered registrations happened before the backbone came
	// up; fold them into the first summary push.
	node.RefreshSummary()
	f.log.Info("joined directory backbone",
		"transport", tr.ID(), "kind", opts.Transport, "seeds", len(opts.Peers))
	return f, nil
}

// resolveFederated answers a client query through the backbone node:
// local semantic match first, then Bloom-selected forwarding to peer
// directories, with the retry/hedging machinery turning dead peers into
// an explicit Unreachable marker instead of a hung request.
func (f *federation) resolveFederated(doc []byte, traced bool) (discovery.Result, error) {
	// The node bounds forwarding by its own QueryTimeout; the context is
	// a safety net above it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if traced {
		return f.node.DiscoverTrace(ctx, doc)
	}
	return f.node.DiscoverResult(ctx, doc)
}

// refresh propagates an out-of-band backend mutation (client register or
// deregister) to the backbone. When it returns, every peer has been sent
// whatever the mutation changed in the Bloom summary's bits, so the
// client's reply never precedes its discoverability; a mutation that
// moved only the advertisement count is pushed by the node's next tick.
func (f *federation) refresh() {
	f.node.RefreshSummary()
}

// peers snapshots the backbone view, joining the protocol layer's per
// peer state with the transport layer's socket stats for the same
// address.
func (f *federation) peers() []sdpapi.Peer {
	infos := f.node.PeerInfos()
	byAddr := make(map[transport.Addr]transport.Peer)
	if pl, ok := f.tr.(transport.PeerLister); ok {
		for _, p := range pl.Peers() {
			byAddr[p.Addr] = p
		}
	}
	out := make([]sdpapi.Peer, 0, len(infos))
	for _, pi := range infos {
		e := sdpapi.Peer{PeerInfo: pi}
		if tp, ok := byAddr[pi.Addr]; ok {
			e.Transport = &tp
		}
		out = append(out, e)
	}
	return out
}

// close tears the backbone membership down.
func (f *federation) close() {
	f.node.Stop()
	if err := f.tr.Close(); err != nil {
		f.log.Error("transport close", "err", err)
	}
}
