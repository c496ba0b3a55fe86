// Command fedsmoke is the CI smoke check behind `make federation-smoke`:
// it builds sdpd, boots three daemons federated over loopback UDP,
// registers a service advertisement on one, resolves a semantic query
// from another, and fails unless the hit comes back across the backbone.
//
// One scrape of GET /metrics on a federated daemon must be well-formed
// Prometheus text exposition — content type text/plain, every line a
// HELP/TYPE comment or a `name[{le="..."}] value` sample — carrying the
// acceptance metrics of every layer (request counter, ontology phase
// timers, registry histograms, discovery counters, the Bloom
// false-positive-rate gauge, the match-ops counter), with both transport
// byte counters nonzero, proving real datagrams moved.
//
// A second query from C is bracketed by scrapes of profile_parse_seconds
// on C and B: each must have parsed exactly one document, the request —
// once where it entered the backbone, once where it was answered.
//
// The observability surfaces ride the same boot: a traced query from C
// must return spans naming the cross-daemon hop to B, the origin daemon
// must serve that trace back on GET /traces/{id}, trace IDs minted by
// different processes must not collide, and GET /healthz must go green
// on all three daemons.
//
// A second three-daemon federation then boots with tenant admission
// enabled (-auth-secret): unauthorized publishes must be rejected with
// typed codes on every daemon and must never surface in any peer's
// Bloom summary, an authorized tenant-qualified publish must resolve
// across the backbone, a tenant driven past its burst must get
// rate_limited, and tenant_rate_limited_total must show on /metrics.
//
// Usage:
//
//	go run ./cmd/fedsmoke
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"time"

	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
	"sariadne/internal/smoke"
	"sariadne/internal/tenant"
)

const smokeDeadline = 60 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fedsmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("fedsmoke: ok")
}

func run() error {
	tmp, err := os.MkdirTemp("", "fedsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin, err := smoke.Build(tmp, "sdpd")
	if err != nil {
		return err
	}
	doc, err := os.ReadFile(smoke.MediaCenterDoc)
	if err != nil {
		return err
	}
	if err := checkOpen(bin, doc); err != nil {
		return err
	}
	// The open federation is down before the admission one boots, so six
	// daemons never run at once.
	return checkAdmission(bin, doc)
}

// checkOpen drives the federation without admission: the cross-backbone
// hit, the traced query, health, and the /metrics page.
func checkOpen(bin string, doc []byte) error {
	deadline := time.Now().Add(smokeDeadline)
	fed, err := smoke.BootFederation(bin, deadline, func(string) []string { return nil })
	if err != nil {
		return err
	}
	defer fed.Stop()
	a, b, c := fed[0], fed[1], fed[2]

	resp, err := fed.PublishAndResolve(deadline, string(doc), "")
	if err != nil {
		return err
	}
	if resp.Partial {
		return fmt.Errorf("query on %s came back partial with all daemons alive", c.Name)
	}
	if err := expectHit(resp, "HomeMediaCenter"); err != nil {
		return err
	}
	if err := checkParsesPerQuery(b, c); err != nil {
		return err
	}
	if err := checkTracedQuery(b, c); err != nil {
		return err
	}
	for _, d := range fed {
		if err := d.AwaitHealthy(deadline); err != nil {
			return err
		}
	}
	return checkMetrics(a)
}

// expectHit requires the named service among a query reply's hits.
func expectHit(resp *sdpapi.Response, service string) error {
	for _, h := range resp.Hits {
		if h.Service == service {
			return nil
		}
	}
	return fmt.Errorf("query across the backbone: %s not among %d hit(s)", service, len(resp.Hits))
}

// checkParsesPerQuery resolves the tablet's request from C once more, with
// the parse count of C and of B read off /metrics on either side: a request
// is read once at the directory it enters and once at the one that answers
// it. A forward C had to retransmit, which B reads again, excuses B.
func checkParsesPerQuery(b, c *smoke.Daemon) error {
	req, err := os.ReadFile(smoke.TabletRequestDoc)
	if err != nil {
		return err
	}
	const parses, retries = "profile_parse_seconds_count", "discovery_forward_retries_total"
	read := func() (origin, retried, peer float64, err error) {
		atC, err := samples(c, parses, retries)
		if err != nil {
			return 0, 0, 0, err
		}
		atB, err := samples(b, parses)
		if err != nil {
			return 0, 0, 0, err
		}
		return atC[0], atC[1], atB[0], nil
	}
	origin0, retried0, peer0, err := read()
	if err != nil {
		return err
	}
	resp, err := c.Do(sdpapi.Request{Op: sdpapi.OpQuery, Doc: string(req)})
	if err != nil {
		return err
	}
	if err := expectHit(resp, "HomeMediaCenter"); err != nil {
		return err
	}
	origin, retried, peer, err := read()
	if err != nil {
		return err
	}
	if got := origin - origin0; got != 1 {
		return fmt.Errorf("origin %s parsed %v documents for one forwarded query, want 1", c.Name, got)
	}
	if got := peer - peer0; got != 1 && retried == retried0 {
		return fmt.Errorf("answering directory %s parsed %v documents for one forward with no retransmission, want 1", b.Name, got)
	}
	return nil
}

// samples reads the named label-free series off one scrape of d's /metrics.
func samples(d *smoke.Daemon, names ...string) ([]float64, error) {
	page, _, err := d.Get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(names))
	for i, name := range names {
		v, ok := smoke.Sample(page, name)
		if !ok {
			return nil, fmt.Errorf("%s missing from /metrics on %s", name, d.Name)
		}
		out[i] = v
	}
	return out, nil
}

// admissionSecret is the shared HMAC secret every admission daemon and
// the smoke's client-side token minting agree on.
const admissionSecret = "fedsmoke-shared-admission-secret"

// checkAdmission boots a second three-daemon federation with tenant
// admission enforced end-to-end and proves the gatekeeper holds at the
// backbone scale: unauthorized publishes bounce with typed codes on
// every daemon and never reach any peer's Bloom summary, an authorized
// tenant-qualified publish resolves across the backbone, the tenant's
// token bucket runs dry into rate_limited, and the tenant_* series are
// live on /metrics.
func checkAdmission(bin string, doc []byte) error {
	deadline := time.Now().Add(smokeDeadline)
	flags := []string{
		"-auth-secret", admissionSecret,
		// -anon-reads keeps the harness's token-less stats poll serving.
		"-anon-reads",
		// A near-zero refill makes the test deterministic: only the burst
		// is ever spendable, however slowly the smoke machine runs.
		"-tenant-rate", "1e-9",
		"-tenant-burst", "8",
	}
	fed, err := smoke.BootFederation(bin, deadline, func(string) []string { return flags })
	if err != nil {
		return err
	}
	defer fed.Stop()
	b := fed[1]

	qualified, err := qualifyService(doc, "alice")
	if err != nil {
		return err
	}
	malloryTok, err := tenant.MintToken([]byte(admissionSecret), "mallory", tenant.RolePublisher, time.Hour, nil)
	if err != nil {
		return err
	}
	aliceTok, err := tenant.MintToken([]byte(admissionSecret), "alice", tenant.RolePublisher, time.Hour, nil)
	if err != nil {
		return err
	}

	// Unauthorized publishes must bounce on EVERY daemon: a forged token
	// (unauthenticated), a token-less caller — the anonymous read-only
	// tenant under -anon-reads — and a valid tenant writing outside its
	// namespace (both forbidden). None may regenerate a summary.
	for _, d := range fed {
		for _, deny := range []struct{ doc, token, code string }{
			{string(doc), "sdp1.forged.token", tenant.CodeUnauthenticated},
			{string(doc), "", tenant.CodeForbidden},
			{qualified, malloryTok, tenant.CodeForbidden},
		} {
			resp, err := d.Client.Do(sdpapi.Request{Op: sdpapi.OpRegister, Doc: deny.doc, Token: deny.token})
			if err != nil {
				return fmt.Errorf("denied-publish probe on %s: %w", d.Name, err)
			}
			if resp.OK || resp.Code != deny.code {
				return fmt.Errorf("daemon %s answered a publish that should be %s with ok=%v code=%q",
					d.Name, deny.code, resp.OK, resp.Code)
			}
		}
	}

	// The authorized tenant-qualified publish lands on B and resolves
	// anonymously from C across the backbone.
	resp, err := fed.PublishAndResolve(deadline, qualified, aliceTok)
	if err != nil {
		return err
	}
	if err := expectHit(resp, "alice/HomeMediaCenter"); err != nil {
		return err
	}

	// No denied publish may have leaked into a directory: B is the only
	// daemon holding an advertisement, so every summary any daemon holds
	// for A or C must still be empty.
	for _, d := range fed {
		resp, err := d.Do(sdpapi.Request{Op: sdpapi.OpPeers})
		if err != nil {
			return err
		}
		for _, p := range resp.Peers {
			if string(p.Addr) != b.Federate && p.HasSummary && p.Entries != 0 {
				return fmt.Errorf("daemon %s sees %d summary entries from %s; denied publishes leaked into a Bloom summary",
					d.Name, p.Entries, p.Addr)
			}
		}
	}

	// Drive alice's token bucket dry on B: with a 1e-9 refill only the
	// burst of 8 is spendable, one of which the register above consumed.
	limited := false
	for i := 0; i < 12 && !limited; i++ {
		resp, err := b.Client.Do(sdpapi.Request{Op: sdpapi.OpRegister, Doc: qualified, Token: aliceTok})
		if err != nil {
			return fmt.Errorf("burst register %d on %s: %w", i, b.Name, err)
		}
		if !resp.OK && resp.Code != tenant.CodeRateLimited {
			return fmt.Errorf("burst register %d on %s: code %q, want rate_limited", i, b.Name, resp.Code)
		}
		limited = !resp.OK
	}
	if !limited {
		return fmt.Errorf("alice was never rate limited on %s after exhausting the burst", b.Name)
	}

	// The daemon that enforced the decisions must show the tenant series
	// live: the throttle counter nonzero, alice's labeled gauge at 1.
	metrics, _, err := b.Get("/metrics")
	if err != nil {
		return err
	}
	if v, _ := smoke.Sample(metrics, "tenant_rate_limited_total"); v <= 0 {
		return fmt.Errorf("tenant_rate_limited_total is %v on %s; expected nonzero after the burst test", v, b.Name)
	}
	if !regexp.MustCompile(`(?m)^tenant_live_services\{tenant="alice"\} 1$`).Match(metrics) {
		return fmt.Errorf(`tenant_live_services{tenant="alice"} 1 missing from /metrics`)
	}
	return nil
}

// qualifyService rewrites an advertisement under a tenant namespace the
// same way sdpctl publish does.
func qualifyService(doc []byte, tn string) (string, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return "", err
	}
	svc.Name = tenant.Qualify(tn, svc.Name)
	out, err := profile.Marshal(svc)
	return string(out), err
}

// checkTracedQuery resolves the tablet's request from C with tracing on:
// the inline spans must name the cross-backbone hop into B's directory,
// the origin daemon must serve the trace back on GET /traces/{id}, and a
// trace minted by B's process must not share C's entropy word (the
// collision-proofing the random high word buys).
func checkTracedQuery(b, c *smoke.Daemon) error {
	req, err := os.ReadFile(smoke.TabletRequestDoc)
	if err != nil {
		return err
	}
	traced := sdpapi.Request{Op: sdpapi.OpQuery, Doc: string(req), Trace: true}
	resp, err := c.Do(traced)
	if err != nil {
		return err
	}
	if resp.TraceID == 0 || len(resp.Spans) == 0 {
		return fmt.Errorf("traced query on %s returned no trace (id=%d, %d spans)", c.Name, resp.TraceID, len(resp.Spans))
	}
	nodes := map[string]bool{}
	for _, s := range resp.Spans {
		nodes[s.Node] = true
	}
	if !nodes[c.Federate] || !nodes[b.Federate] {
		return fmt.Errorf("trace spans cover %v; want both the origin %s and the answering directory %s",
			nodes, c.Federate, b.Federate)
	}

	path := fmt.Sprintf("/traces/%d", resp.TraceID)
	body, _, err := c.Get(path)
	if err != nil {
		return err
	}
	var rec struct {
		ID    uint64 `json:"id"`
		Spans []struct {
			Node string `json:"node"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return fmt.Errorf("GET %s on %s: %w", path, c.Name, err)
	}
	if rec.ID != resp.TraceID || len(rec.Spans) != len(resp.Spans) {
		return fmt.Errorf("retained trace mismatch: id=%d spans=%d, query returned id=%d spans=%d",
			rec.ID, len(rec.Spans), resp.TraceID, len(resp.Spans))
	}

	bresp, err := b.Do(traced)
	if err != nil {
		return err
	}
	if bresp.TraceID == 0 {
		return fmt.Errorf("traced query on %s returned no trace ID", b.Name)
	}
	if bresp.TraceID>>32 == resp.TraceID>>32 {
		return fmt.Errorf("daemons %s and %s share trace entropy word %#x; cross-process IDs would collide",
			b.Name, c.Name, resp.TraceID>>32)
	}
	return nil
}

// expositionLine accepts Prometheus text format 0.0.4: HELP/TYPE comments
// and `name[{le="..."}] value` samples.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-z][a-z0-9_]* .+|[a-z][a-z0-9_]*(\{le="[^"]+"\})? -?[0-9.eE+-]+)$`)

// requiredMetrics is the acceptance surface: every layer's instruments
// must show up on one scrape.
var requiredMetrics = []string{
	"sdpd_requests_total",
	"ontology_parse_seconds",
	"ontology_classify_seconds",
	"registry_insert_seconds",
	"registry_query_seconds",
	"discovery_forwards_sent_total",
	"discovery_bloom_false_positive_rate",
	"match_encoded_ops_total",
}

// checkMetrics scrapes a federated daemon's /metrics once and requires
// well-formed exposition, the acceptance metrics, and nonzero transport
// byte counters.
func checkMetrics(d *smoke.Daemon) error {
	body, header, err := d.Get("/metrics")
	if err != nil {
		return err
	}
	if ct := header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("GET /metrics: content type %q", ct)
	}
	text := string(body)
	if strings.TrimSpace(text) == "" {
		return fmt.Errorf("empty exposition")
	}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			return fmt.Errorf("malformed exposition line %d: %q", i+1, line)
		}
	}
	for _, name := range requiredMetrics {
		if !strings.Contains(text, name) {
			return fmt.Errorf("required metric %s missing from /metrics", name)
		}
	}
	for _, name := range []string{"transport_bytes_sent_total", "transport_bytes_received_total"} {
		v, ok := smoke.Sample(body, name)
		if !ok {
			return fmt.Errorf("%s missing from /metrics", name)
		}
		if v <= 0 {
			return fmt.Errorf("%s is %v; expected nonzero backbone traffic", name, v)
		}
	}
	return nil
}
