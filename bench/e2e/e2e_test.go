package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smallSpec is a workload small enough to generate in milliseconds; the
// tests below boot no daemon.
func smallSpec() spec {
	return spec{
		name: "small", daemons: 3, ontologies: 6, classes: 12, depth: 1,
		stable: 90, churn: 8, requests: 30, publishEvery: 5, passes: 4, lapSeconds: 1,
	}
}

func mustGenerate(t *testing.T, sp spec, seed int64) *workload {
	t.Helper()
	w, err := generate(sp, seed)
	if err != nil {
		t.Fatalf("generate(%s, %d): %v", sp.name, seed, err)
	}
	return w
}

// flatten is every byte a workload would put on the wire, in plan order.
func flatten(w *workload) []byte {
	p := w.payloads()
	var out []byte
	for _, plan := range w.plan {
		for _, o := range plan {
			if o.kind == opQuery {
				out = append(out, p.query[o.idx]...)
			} else {
				out = append(out, p.publish[o.idx][o.variant]...)
			}
		}
	}
	for _, s := range w.stable {
		out = append(out, s.doc...)
	}
	for _, d := range w.ontologyDocs {
		out = append(out, d...)
	}
	return out
}

func TestWorkloadIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range []spec{smallSpec(), specs[2]} { // UDP and HTTP encodings
		a, b := mustGenerate(t, sp, 7), mustGenerate(t, sp, 7)
		if !bytes.Equal(flatten(a), flatten(b)) {
			t.Errorf("%s: two generations of seed 7 differ", sp.name)
		}
		c := mustGenerate(t, sp, 8)
		if bytes.Equal(flatten(a), flatten(c)) {
			t.Errorf("%s: seeds 7 and 8 generate the same bytes", sp.name)
		}
	}
}

// TestPlanShape checks, on every real workload, the invariants the
// measurement protocol rests on: connections own disjoint halves of the
// churn pool, every pass of a lap is the same op multiset, each churn
// service is flipped an even number of times (so a lap ends in the state
// it began in), and the publish share is what the spec says.
func TestPlanShape(t *testing.T) {
	for _, sp := range append([]spec{smallSpec()}, specs...) {
		w := mustGenerate(t, sp, 1)
		owner := make(map[int32]int)
		for c, plan := range w.plan {
			perPass := len(plan) / sp.passes
			if perPass*sp.passes != len(plan) {
				t.Fatalf("%s: conn %d plan of %d ops is not %d whole passes", sp.name, c, len(plan), sp.passes)
			}
			flips := make(map[int32][2]int)
			publishes := 0
			for pass := 0; pass < sp.passes; pass++ {
				walked := make(map[int32]bool)
				for _, o := range plan[pass*perPass : (pass+1)*perPass] {
					if o.kind != opPublish {
						continue
					}
					publishes++
					if prev, seen := owner[o.idx]; seen && prev != c {
						t.Fatalf("%s: churn service %d published by connections %d and %d", sp.name, o.idx, prev, c)
					}
					owner[o.idx] = c
					if walked[o.idx] {
						t.Fatalf("%s: pass %d publishes churn service %d twice", sp.name, pass, o.idx)
					}
					walked[o.idx] = true
					f := flips[o.idx]
					f[o.variant]++
					flips[o.idx] = f
					if want := uint8((pass + 1) % 2); o.variant != want {
						t.Fatalf("%s: pass %d publishes variant %d, want %d", sp.name, pass, o.variant, want)
					}
				}
				if len(walked) != sp.churn/numConns {
					t.Fatalf("%s: pass %d walks %d churn services, the connection owns %d", sp.name, pass, len(walked), sp.churn/numConns)
				}
			}
			for idx, f := range flips {
				if f[0] != f[1] {
					t.Errorf("%s: churn service %d ends a lap on the wrong variant (%v)", sp.name, idx, f)
				}
			}
			if got := len(plan) / publishes; got != sp.publishEvery {
				t.Errorf("%s: one publish per %d ops, want %d", sp.name, got, sp.publishEvery)
			}
		}
		if len(owner) != sp.churn {
			t.Errorf("%s: a lap publishes %d churn services, pool has %d", sp.name, len(owner), sp.churn)
		}
		if w.lapOps() != sp.passes*sp.churn*sp.publishEvery {
			t.Errorf("%s: lap has %d ops", sp.name, w.lapOps())
		}
	}
}

// oracleConn is a daemon stand-in: it answers every pre-marshalled request
// with the reply a correct daemon would send, and keeps what it was sent.
type oracleConn struct {
	replies map[string][]byte
	got     map[string]int
	tx, rx  int64
	corrupt string // a request to answer wrongly
}

func (o *oracleConn) do(req []byte, sent *time.Time) ([]byte, error) {
	o.got[string(req)]++
	o.tx += int64(len(req))
	if sent != nil {
		*sent = time.Now()
	}
	reply := o.replies[string(req)]
	if string(req) == o.corrupt {
		reply = []byte(`{"ok":true,"hits":[]}`)
	}
	o.rx += int64(len(reply))
	return reply, nil
}
func (o *oracleConn) sent() int64     { return o.tx }
func (o *oracleConn) received() int64 { return o.rx }
func (o *oracleConn) redial() error   { return nil }
func (o *oracleConn) close()          {}

func newOracleRunner(w *workload) (*runner, [numConns]*oracleConn) {
	r := &runner{w: w, c: &cluster{w: w}, pay: w.payloads()}
	replies := make(map[string][]byte)
	for i, q := range r.pay.query {
		replies[string(q)] = replyFor(w, i, nil)
	}
	for _, p := range r.pay.publish {
		for _, v := range p {
			replies[string(v)] = []byte(`{"ok":true,"version":2}`)
		}
	}
	var fakes [numConns]*oracleConn
	for i := range r.conns {
		fakes[i] = &oracleConn{replies: replies, got: make(map[string]int)}
		r.conns[i] = fakes[i]
		r.recs[i] = make([]opRecord, len(w.plan[i]))
	}
	return r, fakes
}

// TestLapAccounting runs laps against the stand-in: every lap sends the
// same multiset of requests, counts every op once, fails none when the
// replies are right, files every verified op under one slice, and fails
// exactly the ops whose reply is wrong.
func TestLapAccounting(t *testing.T) {
	w := mustGenerate(t, smallSpec(), 3)
	r, fakes := newOracleRunner(w)
	r.tracing = true
	var sentPerLap []map[string]int
	for lap := 0; lap < 3; lap++ {
		lr, err := r.lap()
		if err != nil {
			t.Fatal(err)
		}
		if lr.attempted != w.lapOps() || lr.failed != 0 {
			t.Fatalf("lap %d: attempted %d failed %d (%v), want %d and 0", lap, lr.attempted, lr.failed, lr.errs, w.lapOps())
		}
		if want := w.lapOps() / w.spec.publishEvery; lr.publishes != want || lr.queries != w.lapOps()-want {
			t.Errorf("lap %d: %d publishes and %d queries", lap, lr.publishes, lr.queries)
		}
		if len(lr.samples) != lr.completed() {
			t.Errorf("lap %d: %d samples for %d verified ops", lap, len(lr.samples), lr.completed())
		}
		sent := make(map[string]int)
		for _, f := range fakes {
			for req, n := range f.got {
				sent[req] += n
			}
			f.got = make(map[string]int)
		}
		sentPerLap = append(sentPerLap, sent)
		tr := &tracer{}
		r.spans(tr, lr)
		if want := numConns + 4*w.lapOps(); len(tr.spans) != want {
			t.Errorf("lap %d: %d spans, want %d", lap, len(tr.spans), want)
		}
		for id, self := range tr.selfTimes() {
			if id > 0 && self < 0 {
				t.Fatalf("span %d (%s) has negative self time %v", id, tr.spans[id-1].name, self)
			}
		}
	}
	for lap := 1; lap < len(sentPerLap); lap++ {
		if len(sentPerLap[lap]) != len(sentPerLap[0]) {
			t.Fatalf("lap %d sent %d distinct requests, lap 0 %d", lap, len(sentPerLap[lap]), len(sentPerLap[0]))
		}
		for req, n := range sentPerLap[0] {
			if sentPerLap[lap][req] != n {
				t.Fatalf("lap %d sent a request %d times that lap 0 sent %d times", lap, sentPerLap[lap][req], n)
			}
		}
	}

	// Answer one request wrongly: exactly its occurrences fail.
	var bad int32 = -1
	occurrences := 0
	for _, plan := range w.plan {
		for _, o := range plan {
			if o.kind == opQuery && (bad < 0 || o.idx == bad) {
				bad = o.idx
				occurrences++
			}
		}
	}
	for _, f := range fakes {
		f.corrupt = string(r.pay.query[bad])
	}
	lr, err := r.lap()
	if err != nil {
		t.Fatal(err)
	}
	if lr.failed != occurrences || lr.completed() != w.lapOps()-occurrences {
		t.Errorf("with request %d answered wrongly: failed %d, want %d", bad, lr.failed, occurrences)
	}
	if len(lr.errs) == 0 {
		t.Error("failed ops left no message for the report")
	}
}

func TestHomesAreBalanced(t *testing.T) {
	sp := smallSpec()
	w := mustGenerate(t, sp, 5)
	perHome := make(map[int]int)
	for _, s := range w.stable {
		perHome[s.home]++
	}
	for h := 0; h < sp.daemons; h++ {
		if perHome[h] != sp.stable/sp.daemons {
			t.Errorf("home %d holds %d stable services, want %d", h, perHome[h], sp.stable/sp.daemons)
		}
	}
	for _, cs := range w.churn {
		for _, svc := range cs.svcs {
			uri := svc.Provided[0].Category.Ontology
			var oi int
			for i := 0; i < sp.ontologies; i++ {
				if ontologyURI(i) == uri {
					oi = i
				}
			}
			if oi%sp.daemons != 0 {
				t.Errorf("churn service %s uses ontology %d, homed off daemon 0", cs.name, oi)
			}
		}
		if cs.svcs[0].Provided[0].Equal(cs.svcs[1].Provided[0]) {
			t.Errorf("churn service %s: both variants advertise the same capability", cs.name)
		}
	}
}

// replyFor renders the reply a correct daemon would send for request ri.
func replyFor(w *workload, ri int, mutate func(*wireReply)) []byte {
	r := wireReply{OK: true}
	want := append([]hitKey(nil), w.requests[ri].want...)
	// Daemons rank by distance; the oracle stores hits by name.
	for d := 0; len(r.Hits) < len(want); d++ {
		for _, h := range want {
			if h.distance == d {
				r.Hits = append(r.Hits, wireHit{h.service, h.capability, h.distance})
			}
		}
	}
	if mutate != nil {
		mutate(&r)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return b
}

// TestOracleCatchesCorruption is the oracle's self-test: a faithful reply
// passes, and every way a reply or an expectation can be wrong fails.
func TestOracleCatchesCorruption(t *testing.T) {
	w := mustGenerate(t, smallSpec(), 2)
	ri := -1
	for i, r := range w.requests {
		if len(r.want) >= 2 {
			ri = i
			break
		}
	}
	if ri < 0 {
		t.Fatal("no request with two oracle hits; enlarge smallSpec")
	}
	for i := range w.requests {
		if len(w.requests[i].want) == 0 {
			t.Errorf("request %d has no oracle hit, though it was derived from a stable service", i)
		}
		if _, err := w.checkQueryReply(i, replyFor(w, i, nil)); err != nil {
			t.Fatalf("faithful reply to request %d rejected: %v", i, err)
		}
	}
	churnHit := wireHit{w.churn[0].name, "cap0", 0}
	if _, err := w.checkQueryReply(ri, replyFor(w, ri, func(r *wireReply) {
		r.Hits = append([]wireHit{churnHit}, r.Hits...)
	})); err != nil {
		t.Errorf("a hit on a churn service must be tolerated: %v", err)
	}
	bad := map[string]func(*wireReply){
		"missing hit":    func(r *wireReply) { r.Hits = r.Hits[1:] },
		"extra hit":      func(r *wireReply) { r.Hits = append(r.Hits, wireHit{w.stable[0].name, "other", 99}) },
		"wrong distance": func(r *wireReply) { r.Hits[len(r.Hits)-1].Distance += 1 },
		"partial":        func(r *wireReply) { r.Partial = true },
		"error reply":    func(r *wireReply) { r.OK = false; r.Error = "boom" },
		"unranked": func(r *wireReply) {
			r.Hits = append(r.Hits, wireHit{w.churn[0].name, "cap0", -1})
		},
	}
	for name, mutate := range bad {
		if _, err := w.checkQueryReply(ri, replyFor(w, ri, mutate)); err == nil {
			t.Errorf("%s: corrupted reply passed the oracle", name)
		}
	}
	// A corrupted expectation is caught the same way.
	faithful := replyFor(w, ri, nil)
	saved := w.requests[ri].want
	w.requests[ri].want = saved[1:]
	if _, err := w.checkQueryReply(ri, faithful); err == nil {
		t.Error("a faithful reply checked against a corrupted expectation passed")
	}
	w.requests[ri].want = saved
	if _, err := w.checkQueryReply(ri, []byte("{not json")); err == nil {
		t.Error("malformed reply passed the oracle")
	}
}

// TestAwaitUpNoticesADeadDaemon: a daemon that exits while booting fails
// the boot at once instead of being polled until the boot deadline.
func TestAwaitUpNoticesADeadDaemon(t *testing.T) {
	bin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false(1) to stand in for a daemon that dies at start")
	}
	port, err := freePort()
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{bin: bin, udp: addr, http: addr, stderr: filepath.Join(t.TempDir(), "sdpd.log")}
	c := &cluster{w: &workload{}, daemons: []*daemon{d}}
	if err := d.start(); err != nil {
		t.Fatal(err)
	}
	defer d.kill()
	start := time.Now()
	err = c.awaitUp(0, start.Add(bootDeadline))
	if err == nil || !strings.Contains(err.Error(), "exited while starting") {
		t.Errorf("awaitUp on a dead daemon: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("awaitUp took %v to notice", waited)
	}
}

func TestEstimators(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	xs := []float64{9, 1, 5, 3, 7} // sorted 1 3 5 7 9
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 3}, {0.5, 5}, {0.9, 8.2}, {1, 9}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN")
	}
	if got := goodQuartile(xs, false); !near(got, 3) {
		t.Errorf("good quartile of a time = %v, want Q1 = 3", got)
	}
	if got := goodQuartile(xs, true); !near(got, 7) {
		t.Errorf("good quartile of a rate = %v, want Q3 = 7", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(ten); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
	if got := quartileSpread([]float64{10, 12, 11}); !near(got, 2.0/11) {
		t.Errorf("quartileSpread(10, 12, 11) = %v, want 2/11", got)
	}
	if minOf(xs) != 1 || maxOf(xs) != 9 || !near(median(ten), 5.5) {
		t.Error("min/max/median disagree with the vector")
	}
}

func TestLapsForSeconds(t *testing.T) {
	sp := spec{lapSeconds: 2.5}
	for _, c := range []struct{ seconds, want int }{{1, 6}, {15, 6}, {20, 8}, {60, 24}} {
		if got := sp.laps(c.seconds); got != c.want {
			t.Errorf("laps(%d s at 2.5 s/lap) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

// sliceOf builds a slice whose queries all took q microseconds.
func sliceOf(n int, q float64, publishes ...float64) slice {
	s := slice{publish: publishes}
	for i := 0; i < n; i++ {
		s.query = append(s.query, q)
	}
	return s
}

// TestSlicesAndUndisturbed cuts a synthetic lap into slices and checks the
// estimator on a two-speed run: it reads the fast state however small its
// share, ignores freak slices and slices too thin to score, and reads the
// slow state when that is all there was.
func TestSlicesAndUndisturbed(t *testing.T) {
	t0 := time.Unix(100, 0)
	lr := &lapResult{start: t0, end: t0.Add(250 * time.Millisecond)}
	for _, ms := range []int{10, 20, 99, 100, 180, 199, 230} { // the last falls in the dropped remainder
		kind := opQuery
		if ms == 180 {
			kind = opPublish
		}
		lr.samples = append(lr.samples, sample{kind, t0.Add(time.Duration(ms) * time.Millisecond), float64(ms)})
	}
	sl := lr.slices()
	if len(sl) != 2 || len(sl[0].query) != 3 || len(sl[1].query) != 2 || len(sl[1].publish) != 1 {
		t.Fatalf("slices = %+v", sl)
	}
	if got := sl[0].value("ops_s"); got != 30 {
		t.Errorf("3 ops in a 100 ms slice = %v ops/s, want 30", got)
	}
	if got := sl[1].value("publish_p50_us"); got != 180 {
		t.Errorf("publish_p50_us = %v, want 180", got)
	}
	if !math.IsNaN(sl[0].value("publish_p50_us")) {
		t.Error("a slice without publishes read a publish latency")
	}

	var run []slice
	for i := 0; i < 40; i++ {
		run = append(run, sliceOf(50, 300+float64(i%7), 3000)) // slow state
	}
	for i := 0; i < 5; i++ {
		run = append(run, sliceOf(50, 200+float64(i), 2000)) // fast state
	}
	run = append(run, sliceOf(50, 120, 1200))            // one freak slice
	run = append(run, sliceOf(minSliceQueries-1, 50, 1)) // too thin to score
	quiet := undisturbed(run)
	if len(quiet) != 6 {
		t.Fatalf("%d undisturbed slices, want the freak and the 5 fast ones", len(quiet))
	}
	if got := median(readings(quiet, "query_p50_us")); got < 200 || got > 204 {
		t.Errorf("query_p50_us = %v, want the fast state's 200-204", got)
	}
	if got := median(readings(quiet, "publish_p50_us")); got != 2000 {
		t.Errorf("publish_p50_us = %v, want the fast state's 2000", got)
	}
	slow := undisturbed(run[:40])
	if got := median(readings(slow, "query_p50_us")); len(slow) != 40 || got != 303 {
		t.Errorf("a run that never saw the fast state: %d slices, query_p50_us %v; want all 40 and 303", len(slow), got)
	}
	if undisturbed(nil) != nil || !math.IsNaN(median(readings(nil, "ops_s"))) {
		t.Error("no slices must give no reading")
	}
}

const cannedMetrics = `# HELP sdpd_requests_total client requests handled
# TYPE sdpd_requests_total counter
sdpd_requests_total 1234
# TYPE sdpd_request_seconds histogram
sdpd_request_seconds_bucket{le="1.024e-06"} 0
sdpd_request_seconds_bucket{le="0.000131072"} 17
sdpd_request_seconds_bucket{le="+Inf"} 40
sdpd_request_seconds_sum 0.0123
sdpd_request_seconds_count 40
# TYPE tenant_live_services gauge
tenant_live_services{tenant="bench"} 1000
# TYPE discovery_bloom_false_positive_rate gauge
discovery_bloom_false_positive_rate 2.5e-05

`

func TestParseMetrics(t *testing.T) {
	s, err := parseMetrics(strings.NewReader(cannedMetrics))
	if err != nil {
		t.Fatal(err)
	}
	want := scrape{
		"sdpd_requests_total":                  1234,
		"sdpd_request_seconds_sum":             0.0123,
		"sdpd_request_seconds_count":           40,
		`tenant_live_services{tenant="bench"}`: 1000,
		"discovery_bloom_false_positive_rate":  2.5e-05,
	}
	if len(s) != len(want) {
		t.Errorf("parsed %d samples, want %d: %v", len(s), len(want), s)
	}
	for k, v := range want {
		if s[k] != v {
			t.Errorf("%s = %v, want %v", k, s[k], v)
		}
	}
	later := scrape{"sdpd_requests_total": 1300, "sdpd_request_seconds_count": 100, "store_syncs_total": 5}
	d := later.sub(s)
	if d["sdpd_requests_total"] != 66 || d["sdpd_request_seconds_count"] != 60 || d["store_syncs_total"] != 5 {
		t.Errorf("delta = %v", d)
	}
	d.add(scrape{"sdpd_requests_total": 4})
	if d["sdpd_requests_total"] != 70 {
		t.Errorf("accumulated delta = %v", d["sdpd_requests_total"])
	}
	if _, err := parseMetrics(strings.NewReader("name_without_value\n")); err == nil {
		t.Error("a sample without a value parsed")
	}
	if _, err := parseMetrics(strings.NewReader("m notanumber\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := []byte("4242 (sd pd) x) S 1 4242 4242 0 -1 4194560 2113 0 0 0 731 269 0 0 20 0 9 0 8817 1271 5930 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	cpu, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(731+269) * clockTick; cpu != want {
		t.Errorf("cpu = %v, want %v", cpu, want)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
	status := []byte("Name:\tsdpd\nVmPeak:\t 1240000 kB\nVmHWM:\t   32820 kB\nVmRSS:\t   30100 kB\nThreads:\t9\n")
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 32820 {
		t.Errorf("VmHWM = %d, %v; want 32820", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key parsed")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 pages\n"), "VmHWM"); err == nil {
		t.Error("a line in the wrong unit parsed")
	}
	// The harness itself is a process with both files.
	if _, err := cpuTimeOf([]int{selfPID}); err != nil {
		t.Errorf("cpuTimeOf(self): %v", err)
	}
	if mib, err := peakRSSMiB([]int{selfPID}); err != nil || mib <= 0 {
		t.Errorf("peakRSSMiB(self) = %v, %v", mib, err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.add("op", at(0), at(100), 0, 1)
	send := tr.add("send", at(0), at(10), root, 1)
	wait := tr.add("wait", at(10), at(95), root, 1)
	inner := tr.add("kernel", at(20), at(50), wait, 1)
	tr.add("op", at(200), at(230), 0, 2)
	self := tr.selfTimes()
	for id, want := range map[int]time.Duration{
		root: 5 * time.Millisecond, send: 10 * time.Millisecond,
		wait: 55 * time.Millisecond, inner: 30 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := tr.meanByName("op", tr.durations()); got != 65*time.Millisecond {
		t.Errorf("mean op duration = %v, want 65ms", got)
	}
	if got := tr.meanByName("op", self); got != 17500*time.Microsecond {
		t.Errorf("mean op self time = %v, want 17.5ms", got)
	}
	if got := tr.meanByName("absent", self); got != 0 {
		t.Errorf("mean of no spans = %v", got)
	}
	path := t.TempDir() + "/trace.json"
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		ID, Parent, Op int
		Name           string
		Start          int64 `json:"start_ns"`
		End            int64 `json:"end_ns"`
	}
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	if len(spans) != 5 || spans[3].Name != "kernel" || spans[3].Parent != wait || spans[3].End-spans[3].Start != int64(30*time.Millisecond) {
		t.Errorf("span file round trip: %+v", spans)
	}
}

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the harness reports from.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, harness has %d", len(b.Workloads), len(specs))
	}
	for i, sp := range specs {
		if b.Workloads[i].Name != sp.name || b.Workloads[i].Why != sp.why {
			t.Errorf("workload %d is %q, harness has %q (or the why differs)", i, b.Workloads[i].Name, sp.name)
		}
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", sp.name, len(sp.why))
		}
	}
	var listed []metricDef
	for _, m := range endToEnd {
		if m.layer == "" {
			listed = append(listed, m)
		}
	}
	if len(b.EndToEnd) != len(listed) {
		t.Fatalf("%d end-to-end metrics listed, harness gates %d", len(b.EndToEnd), len(listed))
	}
	for i, m := range listed {
		if got := b.EndToEnd[i]; got != (metric{m.name, m.unit, better(m.higher), m.bound}) {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, harness reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := b.PerLayer[i]; got != (metric{Name: m.name, Unit: m.unit, Better: better(m.higher)}) {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, got, m)
		}
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", b.RunSeconds, defaultSeconds)
	}
	for _, sp := range specs {
		if got := sp.laps(b.RunSeconds); got < minLaps {
			t.Errorf("%s: run_seconds buys %d laps, the protocol wants at least %d", sp.name, got, minLaps)
		}
	}
}
