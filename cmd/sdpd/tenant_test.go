package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
	"sariadne/internal/tenant"
)

// enforcingConfig is testConfig with admission on under the given limits;
// without an authenticator of their own, static tokens: alice (publisher),
// bob (reader), root (admin).
func enforcingConfig(t *testing.T, limits tenant.Config) config {
	t.Helper()
	cfg := testConfig(t)
	if cfg.tenant = limits; limits.Auth == nil {
		static, err := tenant.ParseStatic(strings.NewReader("ta alice\ntb bob reader\ntr root admin\n"))
		if err != nil {
			t.Fatal(err)
		}
		cfg.tenant.Auth = static
	}
	return cfg
}

func enforcingServer(t *testing.T, limits tenant.Config) *server {
	t.Helper()
	return bootServer(t, enforcingConfig(t, limits))
}

func namedDoc(t *testing.T, name string) string {
	t.Helper()
	svc := profile.WorkstationService()
	svc.Name = name
	return mustDoc(t, svc)
}

func TestAdmissionUDP(t *testing.T) {
	s := enforcingServer(t, tenant.Config{})

	// No token, unknown token: 401-class denials before any work.
	for _, token := range []string{"", "bogus"} {
		resp := s.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "alice/ws"), Token: token})
		if resp.OK || resp.Code != tenant.CodeUnauthenticated {
			t.Fatalf("token %q: %+v", token, resp)
		}
	}
	// Reads need a credential too on a strict daemon.
	if resp := s.handle(sdpapi.Request{Op: "stats"}); resp.OK || resp.Code != tenant.CodeUnauthenticated {
		t.Fatalf("anonymous stats on strict daemon: %+v", resp)
	}

	// Un-namespaced and cross-tenant publishes are forbidden.
	resp := s.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "ws"), Token: "ta"})
	if resp.OK || resp.Code != tenant.CodeForbidden || !strings.Contains(resp.Error, "alice/ws") {
		t.Fatalf("un-namespaced publish: %+v", resp)
	}
	resp = s.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "bob/ws"), Token: "ta"})
	if resp.OK || resp.Code != tenant.CodeForbidden {
		t.Fatalf("cross-tenant publish: %+v", resp)
	}
	// None of the denials may have touched the backend: the Bloom summary
	// is regenerated from it, so a rejected advertisement must never be
	// observable there. newTestServer's ontologies contribute 0 services.
	if n := s.backend.Len(); n != 0 {
		t.Fatalf("denied publishes leaked %d capabilities into the backend", n)
	}

	// The happy path: a namespaced publish under the owner's token.
	resp = s.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "alice/ws"), Token: "ta"})
	if !resp.OK || resp.Version != 1 {
		t.Fatalf("admitted publish: %+v", resp)
	}
	// Readers can query but not mutate.
	if resp := s.handle(sdpapi.Request{Op: "query", Doc: mustDoc(t, profile.PDAService()), Token: "tb"}); !resp.OK || len(resp.Hits) != 1 {
		t.Fatalf("reader query: %+v", resp)
	}
	if resp := s.handle(sdpapi.Request{Op: "deregister", Name: "alice/ws", Token: "tb"}); resp.OK || resp.Code != tenant.CodeForbidden {
		t.Fatalf("reader deregister: %+v", resp)
	}
	if resp := s.handle(sdpapi.Request{Op: "add-ontology", Doc: "x", Token: "tb"}); resp.OK || resp.Code != tenant.CodeForbidden {
		t.Fatalf("reader ontology upload: %+v", resp)
	}

	// The admission table is admin-only and reflects the bookkeeping.
	if resp := s.handle(sdpapi.Request{Op: "tenants", Token: "ta"}); resp.OK || resp.Code != tenant.CodeForbidden {
		t.Fatalf("publisher read /tenants: %+v", resp)
	}
	resp = s.handle(sdpapi.Request{Op: "tenants", Token: "tr"})
	if !resp.OK || resp.Tenants == nil || !resp.Tenants.Enforcing || resp.Tenants.Auth != "static" {
		t.Fatalf("admin tenants: %+v", resp)
	}
	var alice *tenant.Status
	for i := range resp.Tenants.Tenants {
		if resp.Tenants.Tenants[i].Tenant == "alice" {
			alice = &resp.Tenants.Tenants[i]
		}
	}
	// Three denials charged to alice: the un-namespaced publish, the
	// cross-tenant publish, and the forbidden /tenants probe just above.
	if alice == nil || alice.LiveServices != 1 || alice.PublishesTotal != 1 || alice.DeniedTotal != 3 {
		t.Fatalf("alice status = %+v", alice)
	}

	// Deregister under the owner frees the live slot.
	if resp := s.handle(sdpapi.Request{Op: "deregister", Name: "alice/ws", Token: "ta"}); !resp.OK {
		t.Fatalf("owner deregister: %+v", resp)
	}
	resp = s.handle(sdpapi.Request{Op: "tenants", Token: "tr"})
	for _, row := range resp.Tenants.Tenants {
		if row.Tenant == "alice" && row.LiveServices != 0 {
			t.Fatalf("live count after withdraw = %d", row.LiveServices)
		}
	}
}

func TestAdmissionHMACAndAnonymousReads(t *testing.T) {
	secret := []byte("0123456789abcdef")
	h, err := tenant.NewHMAC(secret, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := enforcingServer(t, tenant.Config{Auth: h, AnonymousReads: true})

	// Token-less reads are served as the anonymous tenant...
	if resp := s.handle(sdpapi.Request{Op: "stats"}); !resp.OK {
		t.Fatalf("anonymous stats: %+v", resp)
	}
	// ...but token-less mutations are still refused.
	if resp := s.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "alice/ws")}); resp.OK || resp.Code != tenant.CodeForbidden {
		t.Fatalf("anonymous publish: %+v", resp)
	}

	// A minted token publishes into its own namespace.
	tok, err := tenant.MintToken(secret, "alice", tenant.RolePublisher, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp := s.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "alice/ws"), Token: tok}); !resp.OK {
		t.Fatalf("minted-token publish: %+v", resp)
	}
}

// TestAdmissionRateLimit drives one tenant through its token bucket and
// minute quota, checking the 429 code surfaces on the wire.
func TestAdmissionRateLimit(t *testing.T) {
	// A near-zero refill rate keeps the bucket from topping back up
	// between requests: only the burst is spendable during the test.
	s := enforcingServer(t, tenant.Config{Rate: 1e-9, Burst: 3})
	for i := 0; i < 3; i++ {
		if resp := s.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "alice/ws"), Token: "ta"}); !resp.OK {
			t.Fatalf("burst publish %d: %+v", i, resp)
		}
	}
	resp := s.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "alice/ws"), Token: "ta"})
	if resp.OK || resp.Code != tenant.CodeRateLimited {
		t.Fatalf("drained bucket: %+v", resp)
	}
	// The denial did not supersede the advertisement: still version 3.
	s.mu.Lock()
	ver := s.adverts["alice/ws"].current()
	s.mu.Unlock()
	if ver != 3 {
		t.Fatalf("rate-limited publish bumped the version to %d", ver)
	}
}

// TestAdmissionQuotaDurable proves per-tenant live counts survive a
// daemon restart: a replayed store rebuilds them, so the max-live quota
// binds immediately instead of resetting to zero.
func TestAdmissionQuotaDurable(t *testing.T) {
	cfg := enforcingConfig(t, tenant.Config{MaxLiveServices: 2})
	cfg.state = filepath.Join(t.TempDir(), "state.bolt")
	s1 := bootServer(t, cfg)
	for _, name := range []string{"alice/a", "alice/b"} {
		if resp := s1.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, name), Token: "ta"}); !resp.OK {
			t.Fatalf("register %s: %+v", name, resp)
		}
	}
	if resp := s1.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "alice/c"), Token: "ta"}); resp.OK || resp.Code != tenant.CodeRateLimited {
		t.Fatalf("over-quota publish: %+v", resp)
	}
	s1.close()

	// Restart: a second boot from the same flags, with a gate of its own.
	s2 := bootServer(t, cfg)
	resp := s2.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "alice/c"), Token: "ta"})
	if resp.OK || resp.Code != tenant.CodeRateLimited {
		t.Fatalf("quota not rebuilt by replay: %+v", resp)
	}
	// Withdrawing a replayed service frees a durable slot.
	if resp := s2.handle(sdpapi.Request{Op: "deregister", Name: "alice/a", Token: "ta"}); !resp.OK {
		t.Fatalf("deregister after replay: %+v", resp)
	}
	if resp := s2.handle(sdpapi.Request{Op: "register", Doc: namedDoc(t, "alice/c"), Token: "ta"}); !resp.OK {
		t.Fatalf("register into freed slot: %+v", resp)
	}
}

// TestAdmissionHTTP walks the gateway: bearer headers in, 401/403/429
// statuses out, the admission table on GET /tenants, and the tenant_*
// metric families on /metrics.
func TestAdmissionHTTP(t *testing.T) {
	s := enforcingServer(t, tenant.Config{Rate: 1e-9, Burst: 2})
	ts := httptest.NewServer(newHTTPGateway(s, false))
	t.Cleanup(ts.Close)

	authed := func(method, url, body, token string) (*http.Response, string) {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(payload)
	}

	// 401 without a credential — on mutations and on the direct-read
	// endpoints alike.
	if resp, _ := authed("POST", ts.URL+"/services", namedDoc(t, "alice/ws"), ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless POST /services = %d", resp.StatusCode)
	}
	if resp, _ := authed("GET", ts.URL+"/services", "", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless GET /services = %d", resp.StatusCode)
	}
	// 403 outside the namespace.
	if resp, _ := authed("POST", ts.URL+"/services", namedDoc(t, "bob/ws"), "ta"); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("cross-tenant POST = %d", resp.StatusCode)
	}
	// Admitted publishes, then 429 when the bucket drains.
	for i := 0; i < 2; i++ {
		if resp, body := authed("POST", ts.URL+"/services", namedDoc(t, "alice/ws"), "ta"); resp.StatusCode != http.StatusCreated {
			t.Fatalf("publish %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	if resp, _ := authed("POST", ts.URL+"/services", namedDoc(t, "alice/ws"), "ta"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained bucket = %d", resp.StatusCode)
	}

	// GET /tenants: 403 for a publisher, the full table for an admin.
	if resp, _ := authed("GET", ts.URL+"/tenants", "", "ta"); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("publisher GET /tenants = %d", resp.StatusCode)
	}
	resp, body := authed("GET", ts.URL+"/tenants", "", "tr")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin GET /tenants = %d: %s", resp.StatusCode, body)
	}
	var table sdpapi.Response
	if err := json.Unmarshal([]byte(body), &table); err != nil {
		t.Fatal(err)
	}
	if table.Tenants == nil || !table.Tenants.Enforcing || len(table.Tenants.Tenants) == 0 {
		t.Fatalf("tenants body = %s", body)
	}

	// The labeled families and the 429 counter are on /metrics.
	resp, metrics := authed("GET", ts.URL+"/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{
		`tenant_live_services{tenant="alice"} 1`,
		"tenant_rate_limited_total",
		"tenant_denied_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// An authenticated read pages the listing normally.
	if resp, body := authed("GET", ts.URL+"/services", "", "tb"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "alice/ws") {
		t.Fatalf("reader GET /services = %d: %s", resp.StatusCode, body)
	}
}
