package main

import (
	"sync"
	"time"

	"sariadne/internal/store"
)

// probe is one named component check inside a health report.
type probe struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`
}

// healthState is the cached outcome of the latest probe round, served
// verbatim by GET /healthz and /readyz.
type healthState struct {
	// Healthy means the daemon's own components work: store answering,
	// configured HTTP gateway serving, backbone transport not closed.
	Healthy bool `json:"healthy"`
	// Ready additionally requires the federation to be usable: at least
	// one backbone peer heard from recently (standalone daemons are ready
	// whenever they are healthy).
	Ready   bool      `json:"ready"`
	Checked time.Time `json:"checked,omitzero"`
	Probes  []probe   `json:"probes"`
}

// healthChecker probes the daemon's components every -health-interval
// and caches the result, so the /healthz and /readyz surfaces answer
// instantly and a wedged component cannot hang the health endpoint itself.
type healthChecker struct {
	srv *server
	// peerRecency bounds how long ago the freshest backbone peer may have
	// been heard for the daemon to count as ready: ten probe intervals.
	interval, peerRecency time.Duration

	mu   sync.Mutex
	last healthState
}

// newHealthChecker probes once synchronously, so the surfaces never serve
// a zero state; newServer keeps it probing.
func newHealthChecker(srv *server) *healthChecker {
	h := &healthChecker{srv: srv, interval: srv.cfg.healthInterval}
	if h.interval <= 0 {
		h.interval = time.Second
	}
	h.peerRecency = 10 * h.interval
	h.probeNow()
	return h
}

// probeNow runs every component check and caches the verdicts.
func (h *healthChecker) probeNow() {
	// The wedged-serialisation probe: the one thing checked here that only
	// the request mutex can tell.
	h.srv.mu.Lock()
	h.srv.mu.Unlock()
	storeP := probe{Name: "store", OK: true}
	fed := h.srv.fed
	if p, ok := h.srv.store.(store.Prober); ok {
		if err := p.Healthy(); err != nil {
			storeP.OK = false
			storeP.Err = err.Error()
		}
	}

	httpP := probe{Name: "http", OK: h.srv.cfg.http == "" || h.srv.httpLive.Load()}
	if !httpP.OK {
		httpP.Err = "gateway configured but not serving"
	}

	backbone := probe{Name: "backbone", OK: true}
	peersP := probe{Name: "peers", OK: true}
	if fed != nil {
		if hp, ok := fed.tr.(interface{ Healthy() error }); ok {
			if err := hp.Healthy(); err != nil {
				backbone.OK = false
				backbone.Err = err.Error()
			}
		}
		infos := fed.node.PeerInfos()
		recent := false
		for _, pi := range infos {
			if !pi.LastAnnounce.IsZero() && time.Since(pi.LastAnnounce) <= h.peerRecency {
				recent = true
				break
			}
		}
		switch {
		case len(infos) == 0:
			peersP.OK = false
			peersP.Err = "no backbone peers known"
		case !recent:
			peersP.OK = false
			peersP.Err = "no backbone peer heard recently"
		}
	}

	report := healthState{
		Healthy: storeP.OK && httpP.OK && backbone.OK,
		Checked: time.Now(),
		Probes:  []probe{storeP, httpP, backbone, peersP},
	}
	report.Ready = report.Healthy && peersP.OK
	healthyGauge.Set(report.Healthy)
	readyGauge.Set(report.Ready)

	h.mu.Lock()
	h.last = report
	h.mu.Unlock()
}

// state returns the latest cached health report.
func (h *healthChecker) state() healthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}
