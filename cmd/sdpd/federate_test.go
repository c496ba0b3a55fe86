package main

import (
	"fmt"
	"testing"
	"time"

	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
	"sariadne/internal/testutil"
)

// federatedConfig is testConfig with a backbone membership on a fresh
// loopback port: `sdpd -federate 127.0.0.1:0 -federate-transport kind
// -peer ...`.
func federatedConfig(t *testing.T, kind string, peers ...string) config {
	t.Helper()
	cfg := testConfig(t)
	cfg.federate, cfg.federateTransport, cfg.peers = "127.0.0.1:0", kind, peers
	return cfg
}

// newFederatedServer boots a daemon from federatedConfig.
func newFederatedServer(t *testing.T, kind string, peers ...string) (*server, *federation) {
	t.Helper()
	s := bootServer(t, federatedConfig(t, kind, peers...))
	return s, s.fed
}

// TestFederatedDaemons drives two daemon servers federated over loopback
// (once per substrate): a service registered through one daemon's client
// front end is discovered through the other's, and the peers op reports
// the live backbone view on both sides.
func TestFederatedDaemons(t *testing.T) {
	for _, kind := range []string{"udp", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			sa, fa := newFederatedServer(t, kind)
			sb, _ := newFederatedServer(t, kind, string(fa.node.ID()))

			testutil.WaitFor(t, 5*time.Second, func() bool {
				return len(fa.node.Peers()) == 1
			}, "backbone handshake")

			if resp := sa.handle(sdpapi.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())}); !resp.OK {
				t.Fatalf("register on A: %s", resp.Error)
			}
			// B's view of A reflects the registration once the refreshed
			// summary lands.
			testutil.WaitFor(t, 5*time.Second, func() bool {
				resp := sb.handle(sdpapi.Request{Op: "peers"})
				if !resp.OK || len(resp.Peers) != 1 {
					return false
				}
				p := resp.Peers[0]
				return p.Addr == fa.node.ID() && p.HasSummary && p.Entries == 2 && !p.LastAnnounce.IsZero()
			}, "A's summary never reached B")

			resp := sb.handle(sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())})
			if !resp.OK || len(resp.Hits) != 1 {
				t.Fatalf("federated query: %+v", resp)
			}
			if h := resp.Hits[0]; h.Service != "MediaWorkstation" || h.Directory != string(fa.node.ID()) {
				t.Fatalf("hit = %+v, want MediaWorkstation via %s", h, fa.node.ID())
			}
			if resp.Partial {
				t.Fatalf("two live daemons produced a partial result: %+v", resp)
			}

			// The transport join shows socket-level traffic for the peer.
			resp = sa.handle(sdpapi.Request{Op: "peers"})
			if !resp.OK || len(resp.Peers) != 1 || resp.Peers[0].Transport == nil {
				t.Fatalf("peers on A: %+v", resp)
			}
			if tp := resp.Peers[0].Transport; tp.FramesSent == 0 || tp.FramesReceived == 0 {
				t.Fatalf("transport stats empty: %+v", tp)
			}
		})
	}
}

// TestPublishBurstAcrossThreeDaemons drives the summary path from the
// client front end: the burst's first publish adds an ontology-set key
// and is discoverable through another daemon on the strength of that
// publish alone, and the 499 that only move the count leave every peer's
// entry count right once the burst is over, with no publish after it.
func TestPublishBurstAcrossThreeDaemons(t *testing.T) {
	const burst = 500
	sa, fa := newFederatedServer(t, "udp")
	sb, fb := newFederatedServer(t, "udp", string(fa.node.ID()))
	sc, fc := newFederatedServer(t, "udp", string(fa.node.ID()), string(fb.node.ID()))
	testutil.WaitFor(t, 5*time.Second, func() bool {
		return len(fa.node.Peers()) == 2 && len(fb.node.Peers()) == 2 && len(fc.node.Peers()) == 2
	}, "backbone handshake")

	for i := 0; i < burst; i++ {
		svc := profile.WorkstationService()
		svc.Name = fmt.Sprintf("ws%03d", i)
		if resp := sa.handle(sdpapi.Request{Op: "register", Doc: mustDoc(t, svc)}); !resp.OK {
			t.Fatalf("register %s on A: %s", svc.Name, resp.Error)
		}
		if i > 0 {
			continue
		}
		// The summary left A before the reply did; B needs only to have
		// read its socket.
		testutil.WaitFor(t, 5*time.Second, func() bool {
			resp := sb.handle(sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())})
			return resp.OK && len(resp.Hits) == 1 && resp.Hits[0].Service == "ws000" &&
				resp.Hits[0].Directory == string(fa.node.ID())
		}, "first publish of the burst not discoverable through B")
	}

	want := sa.backend.Len()
	if want != 2*burst {
		t.Fatalf("A holds %d capabilities, want %d", want, 2*burst)
	}
	for name, s := range map[string]*server{"B": sb, "C": sc} {
		testutil.WaitFor(t, 5*time.Second, func() bool {
			resp := s.handle(sdpapi.Request{Op: "peers"})
			for _, p := range resp.Peers {
				if p.Addr == fa.node.ID() {
					return p.HasSummary && p.Entries == want
				}
			}
			return false
		}, "%s's view of A never reached %d entries", name, want)
	}
}

// TestPeersOpRequiresFederation pins the standalone behavior: the op
// fails loudly instead of returning a misleading empty backbone.
func TestPeersOpRequiresFederation(t *testing.T) {
	s := newTestServer(t)
	resp := s.handle(sdpapi.Request{Op: "peers"})
	if resp.OK || resp.Code != sdpapi.CodeBadRequest {
		t.Fatalf("peers on standalone daemon: %+v", resp)
	}
}
