package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"sariadne/internal/bloom"
	"sariadne/internal/codes"
	"sariadne/internal/discovery"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/registry"
	"sariadne/internal/store"
	"sariadne/internal/store/boltlike"
	"sariadne/internal/tenant"
	"sariadne/internal/transport"
)

// ladder measures every layer in-process, bottom to top, on the same
// generated inputs the daemons were given: the harness calls the layer's
// public functions with a span around every call. It explains the live
// numbers (which rung the time is on); it is never an end-to-end metric.
type ladder struct {
	w    *workload
	tr   *tracer
	root int
	set  func(name, unit string, v float64)
}

// lap calls fn n times, each call one span under parent, and returns the
// span IDs.
func (l *ladder) lap(name string, parent, n int, fn func(i int)) []int {
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		ids[i] = l.tr.timed(name, parent, i, func() { fn(i) })
	}
	return ids
}

// meanOf averages a per-span table over the given span IDs.
func meanOf(per []time.Duration, ids []int) time.Duration {
	var sum time.Duration
	for _, id := range ids {
		sum += per[id]
	}
	return sum / time.Duration(len(ids))
}

// report sets a metric to the mean duration of the given spans, in unit.
func (l *ladder) report(name, unit string, ids []int) {
	var sum time.Duration
	for _, id := range ids {
		sum += l.tr.spans[id-1].dur()
	}
	perUnit := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
	l.set(name, unit, float64(sum.Nanoseconds())/float64(len(ids))/perUnit)
}

// allocsPer is the mean number of heap allocations of one fn call.
func allocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// must turns a failure on generated, already-validated input into a panic:
// it can only mean the harness and the layer disagree about the API.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("ladder: %v", err))
	}
}

// runLadder climbs the ladder. dir is scratch space for the store rungs.
func runLadder(w *workload, tr *tracer, dir string, set func(name, unit string, v float64)) error {
	l := &ladder{w: w, tr: tr, set: set}
	start := time.Now()
	l.root = tr.add("ladder", start, start, 0, 0)
	defer func() { tr.spans[l.root-1].end = time.Now() }()

	l.ontologyRungs()
	l.profileRungs()
	tables := w.tables
	matcher := match.NewCodeMatcher(tables)
	l.matchRung(matcher)
	backend := l.registryRungs(tables)
	l.discoveryRungs(backend)
	if err := l.transportRung(); err != nil {
		return err
	}
	if err := l.storeRungs(dir); err != nil {
		return err
	}
	return l.tenantRungs()
}

// ontologyRungs: the Fig. 2 load path of one ontology document.
func (l *ladder) ontologyRungs() {
	n := len(l.w.ontologyDocs)
	parsed := make([]*ontology.Ontology, n)
	classified := make([]*ontology.Classified, n)
	l.report("ontology.decode_ms_per_ontology", "ms", l.lap("ontology.decode", l.root, n, func(i int) {
		o, err := ontology.Unmarshal(l.w.ontologyDocs[i])
		must(err)
		parsed[i] = o
	}))
	l.report("ontology.classify_ms_per_ontology", "ms", l.lap("ontology.classify", l.root, n, func(i int) {
		cl, err := ontology.Classify(parsed[i])
		must(err)
		classified[i] = cl
	}))
	l.report("codes.encode_ms_per_ontology", "ms", l.lap("codes.encode", l.root, n, func(i int) {
		_, err := codes.Encode(classified[i], codes.DefaultParams)
		must(err)
	}))
}

// profileRungs: Amigo-S parse of a request and of an advertisement.
func (l *ladder) profileRungs() {
	reqs, ads := l.w.requests, l.w.stable
	parseReq := func(i int) {
		_, err := profile.Unmarshal(reqs[i%len(reqs)].doc)
		must(err)
	}
	l.report("profile.unmarshal_request_us", "us", l.lap("profile.unmarshal_request", l.root, 4*len(reqs), parseReq))
	l.set("profile.unmarshal_request_allocs", "count", allocsPer(len(reqs), parseReq))
	l.report("profile.unmarshal_advert_us", "us", l.lap("profile.unmarshal_advert", l.root, len(ads), func(i int) {
		_, err := profile.Unmarshal(ads[i].doc)
		must(err)
	}))
}

// matchRung: one capability-level match, the paper's unit of work.
func (l *ladder) matchRung(m match.ConceptMatcher) {
	reqs, ads := l.w.requests, l.w.stable
	l.report("match.semantic_distance_ns", "ns", l.lap("match.semantic_distance", l.root, 20*len(reqs), func(i int) {
		// Stride through the pool so related and unrelated pairs both show.
		match.SemanticDistance(m, ads[(i*7)%len(ads)].svc.Provided[0], reqs[i%len(reqs)].cap)
	}))
}

// registryRungs builds daemon 0's directory through the backend (what
// preload does to the daemon), then measures the classified query, the
// linear-scan baseline and a re-register at full size.
func (l *ladder) registryRungs(tables *codes.Registry) *discovery.SemanticBackend {
	backend := discovery.NewSemanticBackend(tables)
	lin := registry.NewLinearDirectory(match.NewCodeMatcher(tables))
	for _, s := range l.w.stable {
		if s.home != 0 {
			continue
		}
		_, err := backend.Register(s.doc)
		must(err)
		must(lin.Register(s.svc))
	}
	for _, cs := range l.w.churn {
		_, err := backend.Register(cs.variants[0])
		must(err)
		must(lin.Register(cs.svcs[0]))
	}
	dir, reqs, churn := backend.Directory(), l.w.requests, l.w.churn
	query := func(i int) { dir.Query(reqs[i%len(reqs)].cap) }
	l.report("registry.query_us", "us", l.lap("registry.query", l.root, 4*len(reqs), query))
	l.set("registry.query_allocs", "count", allocsPer(len(reqs), query))
	l.report("registry.linear_query_us", "us", l.lap("registry.linear_query", l.root, len(reqs), func(i int) {
		lin.Query(reqs[i].cap)
	}))
	l.report("registry.register_us", "us", l.lap("registry.register", l.root, 2*min(len(churn), 20), func(i int) {
		must(dir.Register(churn[i/2].svcs[(i+1)%2]))
	}))
	return backend
}

// discoveryRungs: the backend a daemon's front end calls, the Bloom
// summary it rebuilds per publish, and the backbone wire codec.
func (l *ladder) discoveryRungs(backend *discovery.SemanticBackend) {
	reqs, churn := l.w.requests, l.w.churn
	dir := backend.Directory()
	// backend.Query parses the request and walks the directory; the two
	// are re-run under the call's span so its self time is what the
	// backend adds on top of the layers it calls.
	ids := l.lap("discovery.backend_query", l.root, 2*len(reqs), func(i int) {
		_, err := backend.Query(reqs[i%len(reqs)].doc)
		must(err)
	})
	for i, id := range ids {
		r := reqs[i%len(reqs)]
		l.tr.timed("profile.unmarshal_request", id, i, func() {
			_, err := profile.Unmarshal(r.doc)
			must(err)
		})
		l.tr.timed("registry.query", id, i, func() { dir.Query(r.cap) })
	}
	l.report("discovery.backend_query_us", "us", ids)
	l.set("discovery.backend_query_self_us", "us", float64(meanOf(l.tr.selfTimes(), ids).Nanoseconds())/1e3)
	l.report("discovery.backend_register_us", "us", l.lap("discovery.backend_register", l.root, 2*min(len(churn), 20), func(i int) {
		_, err := backend.Register(churn[i/2].variants[(i+1)%2])
		must(err)
	}))
	l.report("discovery.keys_us", "us", l.lap("discovery.keys", l.root, 200, func(int) { backend.Keys() }))
	// A node's Config defaults: 1024 bits, 4 hashes.
	l.report("bloom.rebuild_us", "us", l.lap("bloom.rebuild", l.root, 200, func(int) {
		f := bloom.MustNew(1024, 4)
		for _, k := range backend.Keys() {
			f.Add(k)
		}
		f.Marshal()
	}))
	codec := discovery.WireCodec{}
	l.report("discovery.codec_query_us", "us", l.lap("discovery.codec_query", l.root, 4*len(reqs), func(i int) {
		r := reqs[i%len(reqs)]
		reply := discovery.QueryReply{ID: uint64(i), From: "127.0.0.1:1", Partial: true}
		for _, h := range r.want {
			reply.Hits = append(reply.Hits, discovery.Hit{Service: h.service, Capability: h.capability,
				Provider: h.service + "-host", Distance: h.distance, For: r.cap.Name})
		}
		for _, msg := range []any{discovery.QueryRequest{ID: uint64(i), Origin: "127.0.0.1:1", Forwarded: true, Doc: r.doc}, reply} {
			frame, err := codec.Encode(msg)
			must(err)
			_, err = codec.Decode(frame)
			must(err)
		}
	}))
}

// transportRung: one forwarded query's worth of backbone traffic — a
// request frame one way, a reply frame back — between two UDP transports
// of this process.
func (l *ladder) transportRung() error {
	open := func() (*transport.UDP, error) {
		return transport.NewUDP(transport.UDPConfig{Listen: "127.0.0.1:0", Codec: discovery.WireCodec{}})
	}
	a, err := open()
	if err != nil {
		return err
	}
	b, err := open()
	if err != nil {
		_ = a.Close() // the failed open is the error to report
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for msg := range b.Inbox() {
			q := msg.Payload.(discovery.QueryRequest)
			_ = b.Send(msg.From, discovery.QueryReply{ID: q.ID, From: b.ID()}) // a lost echo shows as the timeout below
		}
	}()
	reqs := l.w.requests
	var failed error
	ids := l.lap("transport.udp_roundtrip", l.root, 2000, func(i int) {
		if failed != nil {
			return
		}
		if err := a.Send(b.ID(), discovery.QueryRequest{ID: uint64(i), Origin: a.ID(), Doc: reqs[i%len(reqs)].doc}); err != nil {
			failed = err
			return
		}
		select {
		case <-a.Inbox():
		case <-time.After(opTimeout):
			failed = fmt.Errorf("transport rung: no echo within %v", opTimeout)
		}
	})
	// Closing b ends the echo goroutine: its inbox closes.
	errB := b.Close()
	<-done
	errA := a.Close()
	for _, err := range []error{failed, errA, errB} {
		if err != nil {
			return err
		}
	}
	l.report("transport.udp_roundtrip_us", "us", ids)
	return nil
}

// storeRungs: bolt append with and without the per-append fsync (the
// difference is the fsync), and replay with a no-op apply.
func (l *ladder) storeRungs(dir string) error {
	ads := l.w.stable
	rec := func(i int) store.Record {
		s := ads[i%len(ads)]
		return store.Record{Op: store.OpRegister, Doc: string(s.doc), Name: s.name, Version: uint64(i + 1), Tenant: benchTenant}
	}
	appendRung := func(file, metric string, syncEvery, n int) (string, error) {
		path := filepath.Join(dir, file)
		st, err := boltlike.Open(path, store.Options{SyncEvery: syncEvery})
		if err != nil {
			return "", err
		}
		var failed error
		ids := l.lap(metric[:len(metric)-len("_us")], l.root, n, func(i int) {
			if err := st.Append(rec(i)); err != nil {
				failed = err
			}
		})
		if err := st.Close(); err != nil {
			return "", err
		}
		if failed != nil {
			return "", failed
		}
		l.report(metric, "us", ids)
		return path, nil
	}
	const records = 2000
	path, err := appendRung("ladder-nosync.bolt", "store.append_nosync_us", 1<<30, records)
	if err != nil {
		return err
	}
	if _, err := appendRung("ladder-sync.bolt", "store.append_sync_us", 1, 500); err != nil {
		return err
	}
	st, err := boltlike.Open(path, store.Options{})
	if err != nil {
		return err
	}
	var stats store.ReplayStats
	id := l.tr.timed("store.replay", l.root, 0, func() {
		stats, err = st.Replay(func(store.Record) error { return nil })
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if stats.Records != records {
		return fmt.Errorf("store rung: replayed %d records, appended %d", stats.Records, records)
	}
	l.set("store.replay_us_per_record", "us", float64(l.tr.spans[id-1].dur().Nanoseconds())/1e3/records)
	return nil
}

// tenantRungs: what admission adds to every op (authenticate) and to
// every publish (admit).
func (l *ladder) tenantRungs() error {
	auth, err := tenant.NewHMAC([]byte(benchSecret), nil)
	if err != nil {
		return err
	}
	token, err := tenant.MintToken([]byte(benchSecret), benchTenant, tenant.RolePublisher, 0, nil)
	if err != nil {
		return err
	}
	gate := tenant.NewGatekeeper(tenant.Config{Auth: auth})
	var id tenant.Identity
	var failed error
	l.report("tenant.authenticate_ns", "ns", l.lap("tenant.authenticate", l.root, 5000, func(int) {
		if id, err = gate.Authenticate(token); err != nil {
			failed = err
		}
	}))
	name := tenant.Qualify(benchTenant, "svc0000")
	l.report("tenant.admit_publish_ns", "ns", l.lap("tenant.admit_publish", l.root, 5000, func(int) {
		if err := gate.AdmitPublish(id, name, false); err != nil {
			failed = err
		}
	}))
	return failed
}
