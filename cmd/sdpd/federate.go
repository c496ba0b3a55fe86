package main

import (
	"context"
	"log/slog"
	"time"

	"sariadne/internal/discovery"
	"sariadne/internal/election"
	"sariadne/internal/sdpapi"
	"sariadne/internal/transport"
)

// federation is a daemon's membership in a directory backbone: a
// discovery node over a socket transport, sharing the server's backend,
// promoted to directory immediately (daemons are infrastructure — the
// paper's on-the-fly election is for the ad hoc side).
type federation struct {
	node *discovery.Node
	tr   transport.Transport
	log  *slog.Logger
}

// newFederation boots the backbone side of a daemon over backend: a node
// that forwards queries to peers whose Bloom summaries match, degrading to
// partial results when peers die. -federate-transport picks the substrate;
// -advertise defaults to the bound address, which daemons behind NAT or
// binding 0.0.0.0 must override with something dialable.
func newFederation(cfg config, backend *discovery.SemanticBackend, logger *slog.Logger) (*federation, error) {
	var (
		tr  transport.Transport
		err error
	)
	if cfg.federateTransport == "tcp" {
		tr, err = transport.NewTCP(transport.TCPConfig{
			Listen:    cfg.federate,
			Advertise: cfg.advertise,
			Codec:     discovery.WireCodec{},
			Seeds:     cfg.peers,
		})
	} else {
		tr, err = transport.NewUDP(transport.UDPConfig{
			Listen:    cfg.federate,
			Advertise: cfg.advertise,
			Codec:     discovery.WireCodec{},
			Seeds:     cfg.peers,
		})
	}
	if err != nil {
		return nil, err
	}

	// -trace-sample is zero-is-off; the discovery config is
	// zero-is-default, negative-is-off.
	sampleEvery := cfg.traceSample
	if sampleEvery == 0 {
		sampleEvery = -1
	}
	node := discovery.NewNode(tr, backend, discovery.Config{
		// Daemons never self-elect: the backbone is static infrastructure
		// and election payloads are not wire-encodable anyway.
		Election:           election.Config{ElectionTimeout: 24 * time.Hour},
		TraceSampleEvery:   sampleEvery,
		SlowQueryThreshold: cfg.slowQuery,
	})
	node.Start(context.Background())
	node.BecomeDirectory()
	// Store-recovered registrations happened before the backbone came up;
	// fold them into the first summary push.
	node.RefreshSummary()

	f := &federation{node: node, tr: tr, log: logger.With("component", "federation")}
	f.log.Info("joined directory backbone",
		"transport", tr.ID(), "kind", cfg.federateTransport, "seeds", len(cfg.peers))
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
