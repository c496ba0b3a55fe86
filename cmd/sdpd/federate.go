package main

import (
	"context"
	"fmt"
	"log/slog"

	"sariadne/internal/discovery"
	"sariadne/internal/sdpapi"
	"sariadne/internal/transport"
)

// localNode is a standalone daemon's name in its spans and hits.
const localNode = "local"

// localEndpoint is a standalone daemon's endpoint: a backbone of one. Its
// node answers every query on the client's goroutine and has no peer to
// forward to, so nothing is ever sent or delivered and no loop runs.
type localEndpoint struct{}

func (localEndpoint) ID() transport.Addr              { return localNode }
func (localEndpoint) Broadcast(int, any) (int, error) { return 0, nil }
func (localEndpoint) Inbox() <-chan transport.Message { return nil }
func (localEndpoint) Send(to transport.Addr, _ any) error {
	return fmt.Errorf("standalone directory: no peer %s", to)
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

	node := discovery.NewNode(tr, backend, cfg.nodeConfig())
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
