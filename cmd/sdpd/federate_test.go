package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
	"sariadne/internal/store/memstore"
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

// TestProtocolRegisterRacingAPublish: a federated daemon's node registers
// what backbone nodes send it straight into the directory, without the
// daemon's lock. One that lands while a client's re-publish of the same
// name is parked in its append takes the version number the publish looked
// up; the publish then fails loudly rather than list that number twice,
// and the name keeps rising numbers and the registration that got in.
func TestProtocolRegisterRacingAPublish(t *testing.T) {
	st := &blockingStore{Store: memstore.New(), release: make(chan struct{})}
	cfg := federatedConfig(t, "udp")
	cfg.store = st
	s := bootServer(t, cfg)
	if resp := s.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "ws")}); !resp.OK || resp.Version != 1 {
		t.Fatalf("register: %+v", resp)
	}

	entered := make(chan struct{})
	st.entered = entered
	published := make(chan sdpapi.Response, 1)
	go func() { published <- s.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "ws")}) }()
	<-entered
	svc := profile.WorkstationService()
	svc.Name, svc.Provider = "ws", "backbone-host"
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.fed.node.Publish(ctx, []byte(mustDoc(t, svc)))
	close(st.release)
	if err != nil {
		t.Fatalf("protocol register while the publish is parked: %v", err)
	}
	if resp := <-published; resp.OK || resp.Code != sdpapi.CodeInternal || !strings.Contains(resp.Error, "stale version") {
		t.Fatalf("the publish whose number was taken answered %+v, want an internal stale-version error", resp)
	}
	h := historyOf(t, s, "", "ws")
	if h == nil || !h.Live || len(h.Versions) != 2 || h.Versions[0].Version != 1 || h.Versions[1].Version != 2 ||
		!strings.Contains(h.Versions[1].Doc, "backbone-host") {
		t.Fatalf("history after the race: %+v, want versions 1 and 2, the protocol registration's current", h)
	}
	// The next publish takes the number after the protocol's.
	if resp := s.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "ws")}); !resp.OK || resp.Version != 3 {
		t.Fatalf("publish after the race: %+v, want version 3", resp)
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
