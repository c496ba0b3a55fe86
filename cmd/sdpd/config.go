package main

import (
	"flag"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"sariadne/internal/discovery"
	"sariadne/internal/store"
	"sariadne/internal/telemetry"
	"sariadne/internal/tenant"
)

// stringList collects repeated string flags (-ontology, -peer).
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// resolver answers one query document; traced asks for a hop-level trace.
type resolver func(doc []byte, traced bool) (discovery.Result, error)

// config is everything a daemon is booted from: one field per flag (bind),
// checked as a whole (validate) and consumed by newServer and nothing else.
// The admission limits and the watchdog thresholds are bound straight into
// the structs their packages take.
type config struct {
	listen, http            string
	state, storeKind        string
	syncEvery               int
	migrateStore            string
	logLevel                string
	level                   slog.Level // what validate read out of logLevel
	pprof                   bool
	federate, advertise     string
	federateTransport       string
	peers                   stringList
	traceSample             int
	slowQuery               time.Duration
	healthInterval          time.Duration
	sampleEvery             time.Duration
	telemetryJournal        string
	watchEvery, watchWindow time.Duration
	watch                   telemetry.Thresholds
	watchHeapProfile        bool
	chaosLeakGoroutines     int
	compactEvery            time.Duration
	authTokens, authSecret  string
	tenant                  tenant.Config
	ontologies              stringList

	// The seams tests boot through; no flag sets them. store is served in
	// place of the one -store/-state would open (and closed like it);
	// tenant.Auth, when set, in place of the authenticator the -auth-* flags
	// build; history in place of a fresh in-memory ring. wrapResolve, when
	// set, wraps the daemon's resolver.
	store       store.Store
	history     *telemetry.History
	wrapResolve func(resolver) resolver
}

// bind registers every flag of the daemon on fs, each into its field.
func (c *config) bind(fs *flag.FlagSet) {
	fs.StringVar(&c.listen, "listen", ":7474", "UDP address to listen on")
	fs.StringVar(&c.http, "http", "", "also serve an HTTP gateway on this address (optional)")
	fs.StringVar(&c.state, "state", "", "store file for durable registrations (optional)")
	fs.StringVar(&c.storeKind, "store", "bolt", "storage engine: bolt (the durable log at -state) or mem (volatile, in memory)")
	fs.IntVar(&c.syncEvery, "sync-every", 1, "fsync the store once every N appends (1 = per-entry, the safest)")
	fs.StringVar(&c.migrateStore, "migrate-store", "", "import the legacy JSON-lines journal at -state into a new store at this path, then exit")
	fs.StringVar(&c.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.BoolVar(&c.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof on the HTTP gateway")
	fs.StringVar(&c.federate, "federate", "", "socket address for directory backbone traffic; empty runs standalone")
	fs.StringVar(&c.federateTransport, "federate-transport", "udp", "backbone substrate: udp or tcp")
	fs.StringVar(&c.advertise, "advertise", "", "backbone address announced to peers (defaults to the bound -federate address)")
	fs.IntVar(&c.traceSample, "trace-sample", 64, "trace every Nth query into the flight recorder (0 disables sampling)")
	fs.DurationVar(&c.slowQuery, "slow-query", 0, "with -federate, retain queries at least this slow in the flight recorder (0 = half the query timeout); a standalone daemon retains none")
	fs.DurationVar(&c.healthInterval, "health-interval", time.Second, "component health probe interval behind /healthz and /readyz")
	fs.DurationVar(&c.sampleEvery, "sample-every", 5*time.Second, "telemetry time-series sampling cadence behind GET /timeseries (0 disables)")
	fs.StringVar(&c.telemetryJournal, "telemetry-journal", "", "directory for the durable telemetry journal: sampler ticks persist across restarts behind GET /timeseries (optional)")
	fs.DurationVar(&c.watchEvery, "watch-every", 0, "drift-watchdog sweep cadence over the telemetry history (0 disables)")
	fs.DurationVar(&c.watchWindow, "watch-window", 0, "sample window each watchdog sweep examines (default 10x -watch-every, or 5x -sample-every when that is longer)")
	fs.Float64Var(&c.watch.GoroutinesPerMin, "watch-goroutine-growth", 0, "goroutine_growth threshold in goroutines/min (0 = default 30, negative disables)")
	fs.Float64Var(&c.watch.HeapBytesPerMin, "watch-heap-growth-bytes", 0, "memory_growth threshold in heap bytes/min (0 = default 8MiB, negative disables)")
	fs.DurationVar(&c.watch.SummaryStaleAfter, "watch-summary-stale", 0, "summary_stale bound on summary-push stalls (0 = default 5m, negative disables)")
	fs.Float64Var(&c.watch.ElectionsPerMin, "watch-flap-per-min", 0, "election_flap threshold in role transitions/min (0 = default 6, negative disables)")
	fs.Float64Var(&c.watch.AppendP99Factor, "watch-append-p99-factor", 0, "append_latency_step factor over the baseline-half store append p99 (0 = default 8, negative disables)")
	fs.Float64Var(&c.watch.DenialsPerMin, "watch-denial-per-min", 0, "denial_spike absolute floor in tenant denials/min (0 = default 30, negative disables)")
	fs.BoolVar(&c.watchHeapProfile, "watch-heap-profile", false, "capture one pprof heap profile beside the journal on the first memory_growth alert")
	fs.IntVar(&c.chaosLeakGoroutines, "chaos-leak-goroutines", 0, "FAULT INJECTION: leak this many goroutines per second so soak drills can watch the watchdog fire")
	fs.DurationVar(&c.compactEvery, "compact-every", 0, "compact the store on this cadence, off the request path (0 disables)")
	fs.StringVar(&c.authTokens, "auth-tokens", "", "static bearer-token file (`token tenant [role]` per line); enables admission")
	fs.StringVar(&c.authSecret, "auth-secret", "", "shared HMAC secret (>= 16 bytes) accepting sdpctl-minted sdp1 tokens; enables admission")
	fs.BoolVar(&c.tenant.AnonymousReads, "anon-reads", false, "with admission enabled, serve token-less reads as the anonymous tenant")
	fs.Float64Var(&c.tenant.Rate, "tenant-rate", 0, "per-tenant mutating-op rate limit in ops/sec (0 = unlimited)")
	fs.IntVar(&c.tenant.Burst, "tenant-burst", 10, "per-tenant token-bucket burst on top of -tenant-rate")
	fs.IntVar(&c.tenant.MaxLiveServices, "tenant-max-services", 0, "max live advertisements per tenant (0 = unlimited)")
	fs.IntVar(&c.tenant.MaxPublishesPerMinute, "tenant-max-publishes-min", 0, "max admitted mutating ops per tenant per minute (0 = unlimited)")
	fs.Var(&c.ontologies, "ontology", "ontology XML file to load (repeatable)")
	fs.Var(&c.peers, "peer", "backbone address of another daemon to seed from (repeatable)")
}

// hasStore reports whether the daemon persists mutations.
func (c *config) hasStore() bool {
	return c.store != nil || c.state != "" || c.storeKind == "mem"
}

// validate holds every refusal and every warning a flag combination can
// earn, so nothing past it has to check a flag again: err names what the
// daemon will not start with, warnings what it will ignore.
func (c *config) validate() (warnings []string, err error) {
	if err := c.level.UnmarshalText([]byte(c.logLevel)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", c.logLevel, err)
	}
	if c.storeKind != "bolt" && c.storeKind != "mem" {
		return nil, fmt.Errorf("unknown -store %q (want bolt or mem)", c.storeKind)
	}
	if t := c.federateTransport; t != "" && t != "udp" && t != "tcp" {
		return nil, fmt.Errorf("unknown federation transport %q (want udp or tcp)", c.federateTransport)
	}
	if c.migrateStore != "" {
		if c.state == "" {
			return nil, fmt.Errorf("-migrate-store needs a source: set -state")
		}
		if c.migrateStore == c.state {
			return nil, fmt.Errorf("-migrate-store needs a destination path different from -state")
		}
		return nil, nil
	}
	warn := func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }
	if c.compactEvery > 0 && !c.hasStore() {
		warn("-compact-every has no effect without a store")
	}
	if c.federate == "" && (len(c.peers) > 0 || c.advertise != "" || c.slowQuery != 0) {
		warn("-peer/-advertise/-slow-query have no effect without -federate")
	}
	if c.sampleEvery <= 0 && (c.telemetryJournal != "" || c.watchEvery > 0) {
		warn("-telemetry-journal/-watch-every have nothing new to read without -sample-every > 0")
	}
	if min := telemetry.MinWindow(c.sampleEvery); c.watching() && c.watchWindow > 0 && c.watchWindow < min {
		warn("-watch-window holds too few samples for the growth, step and spike detectors to ever fire: window %v, -sample-every %v, want at least %v",
			c.watchWindow, c.sampleEvery, min)
	}
	return warnings, nil
}

// watching reports whether a drift watchdog runs: it needs a cadence and a
// history to sweep.
func (c *config) watching() bool {
	return c.watchEvery > 0 && (c.sampleEvery > 0 || c.telemetryJournal != "" || c.history != nil)
}

// authenticator assembles the admission authenticator from the auth
// flags: a static token table, an HMAC verifier, both chained (static
// first, so operator tokens keep working alongside minted ones), or nil
// for the open pre-tenancy mode.
func (c *config) authenticator() (tenant.Authenticator, error) {
	var chain tenant.Chain
	if c.authTokens != "" {
		static, err := tenant.LoadStaticFile(c.authTokens)
		if err != nil {
			return nil, err
		}
		chain = append(chain, static)
	}
	if c.authSecret != "" {
		h, err := tenant.NewHMAC([]byte(c.authSecret), nil)
		if err != nil {
			return nil, err
		}
		chain = append(chain, h)
	}
	switch len(chain) {
	case 0:
		return nil, nil
	case 1:
		return chain[0], nil
	default:
		return chain, nil
	}
}
