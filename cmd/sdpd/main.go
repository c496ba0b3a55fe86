// Command sdpd runs a standalone S-Ariadne directory node over UDP: a
// real-network deployment of the semantic directory for infrastructure
// settings (the hybrid side of the paper's hybrid-network story). Clients
// (cmd/sdpctl) publish Amigo-S advertisements and resolve semantic
// queries with single-datagram JSON requests.
//
// Usage:
//
//	sdpd -listen :7474 -ontology media.xml -ontology servers.xml
//	sdpd -listen :7475 -federate :8475 -peer 127.0.0.1:8474
//
// A daemon is booted one way: flags → config (config.go) → newServer →
// run until a front end fails or SIGINT/SIGTERM arrives → close. The
// client protocol is defined once in internal/sdpapi; both front ends (the
// UDP loop here and the HTTP gateway in http.go) hand a decoded
// sdpapi.Request to server.handle.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/discovery"
	"sariadne/internal/ontology"
	"sariadne/internal/sdpapi"
	"sariadne/internal/store"
	"sariadne/internal/telemetry"
	"sariadne/internal/tenant"
)

// denialResponse renders an admission refusal (or an authenticator's
// internal fault) as a wire response.
func denialResponse(err error) sdpapi.Response {
	if d, ok := tenant.Denied(err); ok {
		return sdpapi.Response{Error: d.Reason, Code: d.Code}
	}
	return sdpapi.Response{Error: err.Error(), Code: sdpapi.CodeInternal}
}

func fatal(msg string, err error) {
	slog.Error(msg, "err", err)
	os.Exit(1)
}

func main() {
	var cfg config
	cfg.bind(flag.CommandLine)
	flag.Parse()
	warnings, err := cfg.validate()
	if err != nil {
		fatal("flags", err)
	}
	// The process-wide handler; each component derives a tagged child via
	// With("component", ...).
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: cfg.level})))
	for _, w := range warnings {
		slog.Warn(w)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	srv, err := newServer(cfg)
	if err != nil {
		fatal("startup", err)
	}
	err = srv.run(ctx)
	stop() // a second signal, during the close, ends the process the old way
	srv.close()
	if err != nil {
		fatal("front end failed", err)
	}
	slog.Info("shutdown complete")
}

// every calls fn on a goroutine of its own once per interval. stop ends
// the loop and returns once a call in progress has.
func every(interval time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// wiring is the part of a server that newServer assembles from the config
// and nothing writes again, which is why requests, probes and handlers
// read it without a lock. The parts are each safe for concurrent use: the
// code registry is copy-on-write, the backend's directory serves reads
// from an immutable snapshot and serializes its writers, the gatekeeper
// and the store lock internally (which is what lets the background
// compactor run outside the server mutex).
//
//sdp:immutable
type wiring struct {
	cfg     config
	reg     *codes.Registry
	backend *discovery.SemanticBackend
	// gate is the tenant admission layer: every request authenticates
	// through it, every mutation is admitted by it before touching the
	// backend; open (non-enforcing) without -auth-* flags.
	gate *tenant.Gatekeeper
	// store persists mutations when durability is enabled (-state); nil
	// runs fully in-memory. recovered is what replaying it at boot found.
	store     store.Store
	recovered replayStats
	// node answers every query: standalone, a directory with no peers;
	// federated, fed's — the backbone membership, nil when standalone.
	// resolve is its query, wrapped by tests that ask.
	node    *discovery.Node
	resolve resolver
	fed     *federation
	health  *healthChecker
	// history is the daemon's one telemetry time series: the sampler
	// writes it, GET /timeseries and the watchdog read it; nil with neither
	// -telemetry-journal nor -sample-every. historySource is its name on
	// the wire: "journal" when a journal refilled it at start-up and takes
	// every tick, "ring" when it lives in memory only.
	history       *telemetry.History
	historySource string
	// watchdog sweeps drift detectors over history behind GET /alerts; nil
	// when -watch-every is 0.
	watchdog *telemetry.Watchdog
	log      *slog.Logger
	// closers undo, in order, what newServer built; close runs them last
	// to first.
	closers []func()
}

// server is the directory node: the immutable wiring and one mutex. Both
// front ends call handle with a decoded sdpapi.Request, and process runs
// every one under mu. mu guards no field — the parts synchronize
// themselves, and the version numbers live in the directory's record of
// each name — but the order of a mutation: admit, persist, apply, refresh,
// so that store, version sequence and backend never disagree. Queries take
// it as well; they need not.
type server struct {
	wiring
	mu sync.Mutex
	// httpLive records that the configured HTTP gateway is currently bound
	// and serving; the health probe compares it with the configuration.
	httpLive  atomic.Bool
	closeOnce sync.Once
}

// Samples of history retained: about 5.5 hours at the default 5 s cadence
// when a journal can refill them after a restart, an hour in memory only.
const (
	journalHistorySamples = 4096
	memoryHistorySamples  = 720
)

// newServer boots a daemon from a validated config in the one legal
// order: tables → gate → store open → replay → compactor → discovery node
// (and federation) → health → journal/history/sampler → watchdog. A step that fails closes,
// last to first, what the steps before it built.
func newServer(cfg config) (_ *server, err error) {
	logger := slog.Default()
	reg := codes.NewRegistry()
	s := &server{wiring: wiring{
		cfg:     cfg,
		reg:     reg,
		backend: discovery.NewSemanticBackend(reg),
		log:     logger.With("component", "directory"),
	}}
	onClose := func(f func()) { s.closers = append(s.closers, f) }
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	for _, path := range cfg.ontologies {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		table, err := encodeOntology(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("ontology %s: %w", path, err)
		}
		s.backend.AddTable(table)
	}

	// The gate exists before replay so recovered registrations rebuild
	// per-tenant live-service counts (durable quotas).
	if cfg.tenant.Auth == nil {
		if cfg.tenant.Auth, err = cfg.authenticator(); err != nil {
			return nil, fmt.Errorf("admission: %w", err)
		}
	}
	s.gate = tenant.NewGatekeeper(cfg.tenant)
	if s.gate.Enforcing() {
		logger.Info("tenant admission enabled", "component", "tenant",
			"auth", s.gate.AuthName(), "anon_reads", cfg.tenant.AnonymousReads,
			"rate", cfg.tenant.Rate, "burst", cfg.tenant.Burst,
			"max_services", cfg.tenant.MaxLiveServices, "max_publishes_min", cfg.tenant.MaxPublishesPerMinute)
	}

	if cfg.hasStore() {
		stLog := logger.With("component", "store")
		if s.store = cfg.store; s.store == nil {
			if s.store, err = openStore(cfg.storeKind, cfg.state, store.Options{SyncEvery: cfg.syncEvery}); err != nil {
				return nil, fmt.Errorf("store open: %w", err)
			}
		}
		onClose(func() {
			if err := s.store.Close(); err != nil {
				stLog.Error("store close", "err", err)
			}
		})
		if s.recovered, err = s.replayStore(); err != nil {
			return nil, fmt.Errorf("store replay: %w", err)
		}
		if r := s.recovered; r.applied+r.skipped > 0 || r.torn {
			stLog.Info("recovered store records", "applied", r.applied, "skipped", r.skipped, "torn_tail", r.torn)
		}
		if cfg.compactEvery > 0 {
			onClose(every(cfg.compactEvery, func() { compact(s.store, stLog) }))
		}
	}

	if cfg.federate != "" {
		if s.fed, err = newFederation(cfg, s.backend, logger); err != nil {
			return nil, fmt.Errorf("federation: %w", err)
		}
		onClose(s.fed.close)
		s.node = s.fed.node
	} else {
		// Nothing can arrive at a standalone node, so it is promoted but
		// never started.
		s.node = discovery.NewNode(localEndpoint{}, s.backend, cfg.nodeConfig())
		s.node.BecomeDirectory()
	}
	s.resolve = s.query
	if cfg.wrapResolve != nil {
		s.resolve = cfg.wrapResolve(s.resolve)
	}

	s.health = newHealthChecker(s)
	onClose(every(s.health.interval, s.health.probeNow))

	// The soak pipeline: optional journal -> history -> sampler -> drift
	// watchdog. The journal refills the history with what earlier
	// processes sampled and then takes each new tick from the sampler.
	sampling := telemetry.SamplerConfig{Collect: telemetry.SampleRuntime}
	switch {
	case cfg.telemetryJournal != "":
		tjLog := logger.With("component", "telemetry")
		s.history, s.historySource = telemetry.NewHistory(journalHistorySamples), "journal"
		journal, err := telemetry.OpenJournal(cfg.telemetryJournal, telemetry.JournalOptions{}, s.history)
		if err != nil {
			return nil, fmt.Errorf("telemetry journal: %w", err)
		}
		onClose(func() {
			if err := journal.Close(); err != nil {
				tjLog.Error("journal close", "err", err)
			}
		})
		if journal.TornTail() {
			tjLog.Warn("telemetry journal recovered from a torn tail", "dir", cfg.telemetryJournal)
		}
		tjLog.Info("telemetry journal open", "dir", cfg.telemetryJournal, "history", s.history.Len())
		sampling.OnSample = func(sample telemetry.Sample) {
			if err := journal.Append(sample); err != nil {
				tjLog.Error("journal append", "err", err)
			}
		}
	case cfg.history != nil:
		s.history, s.historySource = cfg.history, "ring"
	case cfg.sampleEvery > 0:
		s.history, s.historySource = telemetry.NewHistory(memoryHistorySamples), "ring"
	}
	if cfg.sampleEvery > 0 {
		onClose(telemetry.StartSampler(telemetry.Default(), cfg.sampleEvery, s.history, sampling).Stop)
	}
	if cfg.watching() {
		s.watchdog = newWatchdog(cfg, s.history, logger.With("component", "watchdog"))
		s.watchdog.Start()
		onClose(s.watchdog.Stop)
	}
	return s, nil
}

// close tears down what newServer built, last to first: watchdog, sampler,
// journal, health prober, backbone node and transport, compactor, and the
// store last — its Close is what syncs grouped appends (-sync-every). The
// front ends are run's to stop, before this.
func (s *server) close() {
	s.closeOnce.Do(func() {
		for i := len(s.closers) - 1; i >= 0; i-- {
			s.closers[i]()
		}
	})
}

// newWatchdog assembles the drift watchdog -watch-every asks for over the
// daemon's history.
func newWatchdog(cfg config, history *telemetry.History, wdLog *slog.Logger) *telemetry.Watchdog {
	detectors := telemetry.StandardDetectors(cfg.watch)
	wdLog.Info("drift watchdog running", "every", cfg.watchEvery, "detectors", len(detectors))
	return telemetry.NewWatchdog(telemetry.WatchdogConfig{
		History:   history,
		Detectors: detectors,
		Interval:  cfg.watchEvery,
		Window:    cfg.watchWindow,
		Recorder:  telemetry.FlightRecorder(),
		OnAlert: func(a telemetry.Alert) {
			wdLog.Warn("drift alert fired", "code", a.Code, "severity", a.Severity,
				"metric", a.Metric, "value", a.Value, "threshold", a.Threshold,
				"evidence", a.Evidence)
		},
	}, cfg.sampleEvery)
}

// query answers a query document through the daemon's node: matched on
// this goroutine, and forwarded to peers only when federated and some of
// it is left. The node bounds forwarding by its own QueryTimeout; the
// context is a safety net above it.
func (s *server) query(doc []byte, traced bool) (discovery.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if traced {
		return s.node.DiscoverTrace(ctx, doc)
	}
	return s.node.DiscoverResult(ctx, doc)
}

// run serves both front ends until one fails or ctx is cancelled, and
// returns with both stopped: the UDP socket closed and its loop out of its
// last request, the gateway shut down. A failing HTTP gateway takes the
// daemon down instead of dying silently in a goroutine nothing joins.
func (s *server) run(ctx context.Context) error {
	pc, err := net.ListenPacket("udp", s.cfg.listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	conn := pc.(*net.UDPConn)
	gateway := &http.Server{Handler: newHTTPGateway(s, s.cfg.pprof)}
	ended, running := make(chan error, 2), 1
	if s.cfg.http != "" {
		running++
		go func() { ended <- serveHTTP(s.cfg.http, s, gateway) }()
	}
	slog.Info("serving semantic discovery",
		"component", "udp", "addr", conn.LocalAddr().String(), "ontologies", len(s.cfg.ontologies))
	go func() {
		s.serve(conn)
		ended <- nil
	}()
	select {
	case <-ctx.Done():
	case err = <-ended:
		running--
	}
	conn.Close()
	grace, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if gateway.Shutdown(grace) != nil {
		gateway.Close()
	}
	for ; running > 0; running-- {
		if e := <-ended; err == nil {
			err = e
		}
	}
	return err
}

// encodeOntology turns one ontology document into its code table. It
// touches no server state: an upload passes it before anything is
// persisted or registered.
func encodeOntology(r io.Reader) (*codes.Table, error) {
	o, err := ontology.Decode(r)
	if err != nil {
		return nil, err
	}
	cl, err := ontology.Classify(o)
	if err != nil {
		return nil, err
	}
	return codes.Encode(cl, codes.DefaultParams)
}

// serve is the UDP front end: one datagram in, one datagram out, until
// the socket is closed.
func (s *server) serve(conn *net.UDPConn) {
	udpLog := slog.With("component", "udp")
	buf := make([]byte, sdpapi.MaxDatagram)
	for {
		n, peer, err := conn.ReadFromUDP(buf)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				udpLog.Error("read", "err", err)
			}
			return
		}
		data, err := encodeReply(s.handleDatagram(buf[:n]))
		if err != nil {
			udpLog.Error("marshal reply", "err", err)
			continue
		}
		if _, err := conn.WriteToUDP(data, peer); err != nil {
			udpLog.Error("write reply", "peer", peer.String(), "err", err)
		}
	}
}

// encodeReply renders a reply as one datagram. A reply too long to send
// becomes a typed refusal naming the way out, so the client gets an
// answer instead of waiting out its deadline on a datagram the socket
// would have rejected.
func encodeReply(resp sdpapi.Response) ([]byte, error) {
	data, err := json.Marshal(resp)
	if err != nil || len(data) <= sdpapi.MaxDatagram {
		return data, err
	}
	requestErrorsTotal.Inc()
	return json.Marshal(sdpapi.Response{Code: sdpapi.CodeTooLarge, Error: fmt.Sprintf(
		"reply of %d bytes exceeds the %d-byte datagram limit; use the HTTP gateway", len(data), sdpapi.MaxDatagram)})
}

// handleDatagram decodes one datagram (outside mu) and handles it. A
// datagram that does not decode is a request like any other: timed,
// counted, and answered with bad_request.
func (s *server) handleDatagram(datagram []byte) sdpapi.Response {
	start := time.Now()
	req, err := sdpapi.DecodeRequest(datagram)
	if err != nil {
		return account(start, sdpapi.Response{Error: "malformed request: " + err.Error(), Code: sdpapi.CodeBadRequest})
	}
	return account(start, s.process(req))
}

// handle times and counts one request, then runs it through process. It
// is the one entry both front ends share: the gateway calls it directly,
// the UDP loop via handleDatagram.
func (s *server) handle(req sdpapi.Request) sdpapi.Response {
	start := time.Now()
	return account(start, s.process(req))
}

// account records one handled request in the front-end instruments.
func account(start time.Time, resp sdpapi.Response) sdpapi.Response {
	requestsTotal.Inc()
	if !resp.OK {
		requestErrorsTotal.Inc()
	}
	requestSeconds.ObserveSince(start)
	return resp
}

func (s *server) process(req sdpapi.Request) sdpapi.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Every op authenticates first. An open-mode daemon gets the wildcard
	// identity back at zero cost; an enforcing daemon turns a missing or
	// bad token into a 401 here, before any work happens.
	id, err := s.gate.Authenticate(req.Token)
	if err != nil {
		return denialResponse(err)
	}
	switch req.Op {
	case sdpapi.OpRegister:
		// One parse serves admission and the insert. Admission runs on the
		// prepared advertisement's name BEFORE the backend stores it: a
		// denied publish never enters the capability DAG, so the Bloom
		// summary pushed to federation peers cannot leak it.
		ad, err := s.backend.Prepare(req.Doc)
		if err != nil {
			return sdpapi.Response{Error: err.Error(), Code: sdpapi.CodeBadRequest}
		}
		// The name leaves the request here — for the record, and through it
		// the store's key directory, the directory's record of the name and
		// the gate's tables, all of which outlive this version of the
		// document — so it leaves in a string of its own: ad.Name() is a
		// piece of req.Doc, and a table keyed by it would hold that document
		// for as long as the key. One lookup gives that string, whether the
		// name is live, and the version the directory assigns: re-publishing
		// a name supersedes the old version, which stays listable. The
		// version is persisted with the record and returned to the publisher.
		name, version, live := s.backend.Directory().Lookup(ad.Name())
		if err := s.gate.AdmitPublish(id, name, !live); err != nil {
			return denialResponse(err)
		}
		rec := store.Record{Op: store.OpRegister, Doc: req.Doc, Name: name,
			Version: version, Tenant: advertOwner(name, "")}
		if resp := s.commitLocked(rec, ad); !resp.OK {
			return resp
		}
		s.log.Debug("registered service", "name", name, "version", rec.Version, "capabilities", s.backend.Len())
		return sdpapi.Response{OK: true, Version: rec.Version}
	case sdpapi.OpDeregister:
		if err := s.gate.AdmitDeregister(id, req.Name); err != nil {
			return denialResponse(err)
		}
		if !s.backend.Has(req.Name) {
			return sdpapi.Response{Error: fmt.Sprintf("service %q not registered", req.Name), Code: sdpapi.CodeNotFound}
		}
		return s.commitLocked(store.Record{Op: store.OpDeregister, Name: req.Name, Tenant: advertOwner(req.Name, "")}, nil)
	case sdpapi.OpQuery:
		res, err := s.resolve([]byte(req.Doc), req.Trace)
		if err != nil {
			return sdpapi.Response{Error: err.Error(), Code: sdpapi.CodeBadRequest}
		}
		if res.Partial() {
			partialRepliesTotal.Inc()
			s.log.Warn("serving partial query result",
				"hits", len(res.Hits), "unreachable", len(res.Unreachable))
		}
		resp := sdpapi.Response{OK: true, Hits: res.Hits, Partial: res.Partial(),
			Unreachable: res.Unreachable, TraceID: res.Trace}
		if req.Trace {
			resp.Spans = res.Spans
		}
		return resp
	case sdpapi.OpAddOntology:
		if err := s.gate.AdmitOntology(id); err != nil {
			return denialResponse(err)
		}
		// Encoding the table is the validation. Durable before visible, like
		// every mutation: a failed append must not leave a table that later
		// publishes are accepted against and the next replay will not have.
		table, err := encodeOntology(strings.NewReader(req.Doc))
		if err != nil {
			return sdpapi.Response{Error: err.Error(), Code: sdpapi.CodeBadRequest}
		}
		if err := s.persistLocked(store.Record{Op: store.OpAddOntology, Doc: req.Doc}); err != nil {
			return sdpapi.Response{Error: err.Error(), Code: sdpapi.CodeInternal}
		}
		s.backend.AddTable(table)
		return sdpapi.Response{OK: true}
	case sdpapi.OpGetTable:
		// Thin clients fetch encoded code tables instead of running a
		// reasoner themselves (Section 3.2's code distribution).
		table, ok := s.reg.Resolve(req.Name)
		if !ok {
			return sdpapi.Response{Error: fmt.Sprintf("no table for ontology %q", req.Name), Code: sdpapi.CodeNotFound}
		}
		data, err := codes.MarshalTable(table)
		if err != nil {
			return sdpapi.Response{Error: err.Error(), Code: sdpapi.CodeInternal}
		}
		return sdpapi.Response{OK: true, Table: data}
	case sdpapi.OpStats:
		return sdpapi.Response{OK: true, Stats: &sdpapi.Stats{
			Capabilities: s.backend.Len(),
			Ontologies:   s.reg.URIs(),
		}}
	case sdpapi.OpPeers:
		if s.fed == nil {
			return sdpapi.Response{Error: "daemon is not federated (run with -federate)", Code: sdpapi.CodeBadRequest}
		}
		return sdpapi.Response{OK: true, Peers: s.fed.peers()}
	case sdpapi.OpTenants:
		if err := s.gate.AdmitAdmin(id); err != nil {
			return denialResponse(err)
		}
		return sdpapi.Response{OK: true, Tenants: &sdpapi.Tenants{
			Enforcing: s.gate.Enforcing(),
			Auth:      s.gate.AuthName(),
			Limits:    s.gate.Limits(),
			Tenants:   s.gate.Tenants(),
		}}
	default:
		return sdpapi.Response{Error: fmt.Sprintf("unknown op %q", req.Op), Code: sdpapi.CodeBadRequest}
	}
}

// refreshLocked tells the backbone node, when federated, that a client's
// register or deregister changed the backend. When it returns, every peer
// has been sent whatever the mutation changed in the Bloom summary's bits,
// so the client's reply never precedes its discoverability; a mutation
// that moved only the advertisement count is pushed by the node's next
// tick.
func (s *server) refreshLocked() {
	if s.fed != nil {
		s.fed.node.RefreshSummary()
	}
}

// commitLocked makes one admitted publish or withdrawal durable, then
// applies it the way replay will. Persist comes before every in-memory
// change: a failed append leaves the directory, version sequence included,
// and the tenant live count exactly as they were. ad is the advertisement
// already prepared from rec.Doc (nil for a withdrawal): a publish stays one
// parse. A failed apply leaves a durable record that memory lacks until the
// next replay: a federated node's registration took the version the
// publish looked up, and Adopt refused it as a stale version.
func (s *server) commitLocked(rec store.Record, ad *discovery.Advert) sdpapi.Response {
	if err := s.persistLocked(rec); err != nil {
		return sdpapi.Response{Error: err.Error(), Code: sdpapi.CodeInternal}
	}
	if err := s.applyLocked(rec, ad); err != nil {
		s.log.Error("persisted record not applied", "op", rec.Op, "name", rec.Name, "version", rec.Version, "err", err)
		return sdpapi.Response{Error: err.Error(), Code: sdpapi.CodeInternal}
	}
	s.refreshLocked()
	return sdpapi.Response{OK: true}
}

// persistLocked appends an admitted mutation to the store when
// durability is enabled.
func (s *server) persistLocked(rec store.Record) error {
	if s.store == nil {
		return nil
	}
	return s.store.Append(rec)
}
