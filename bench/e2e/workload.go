package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/registry"
	"sariadne/internal/tenant"
)

// spec is the frozen shape of one workload. Every size here was fixed on
// the seed commit; a later change that makes the daemon faster makes laps
// shorter, never smaller.
type spec struct {
	name string
	why  string
	// daemons is 1, or 3 for the federated workload (clients talk to the
	// first, services are homed by ontology index mod 3).
	daemons int
	// http drives the client front end through the HTTP gateway instead of
	// the UDP datagram protocol; durable adds -store bolt -sync-every 1 and
	// HMAC admission with tenant-qualified names.
	http    bool
	durable bool
	// ontologies x classes is the concept pool; depth is how far a request
	// specializes each concept of the advertisement it was derived from.
	ontologies, classes, depth int
	// stable services are what queries target (their oracle hit sets never
	// change); churn services are what publishes rewrite.
	stable, churn int
	// requests is the number of distinct request documents in the pool.
	requests int
	// publishEvery makes one op in this many a publish.
	publishEvery int
	// passes is how many times a lap walks each connection's half of the
	// churn pool. It is even, so a lap ends in the state it began in.
	passes int
	// lapSeconds is what one lap took on the seed commit, to the nearest
	// quarter second; -seconds buys laps at this price.
	lapSeconds float64
}

// specs are the four workloads, in the order they run. ISSUE.md and the
// README give the reasons for every size and share.
var specs = []spec{
	{
		name:    "lookup-sparse",
		why:     "2000 services over 22x40 concepts, ~1 hit/query, 1 publish per 50 ops: wire decode, JSON, Amigo-S parse and the serial UDP loop are the round trip; a registry optimisation must not move it",
		daemons: 1, ontologies: 22, classes: 40, depth: 1,
		stable: 1920, churn: 80, requests: 400, publishEvery: 50, passes: 2, lapSeconds: 1.25,
	},
	{
		name:    "lookup-dense",
		why:     "1400 services over 2x12 concepts, ~44 hits/query, 1 publish per 5 ops: DAG walk, ranking and reply encode dominate queries; publishes rebuild the snapshot under the global mutex and set p90",
		daemons: 1, ontologies: 2, classes: 12, depth: 2,
		stable: 1330, churn: 70, requests: 400, publishEvery: 5, passes: 2, lapSeconds: 1.25,
	},
	{
		name:    "publish-durable",
		why:     "HTTP gateway, bolt store with fsync per append, HMAC admission, 1000 services, 1 publish per 3 ops: the write path end to end, with queries waiting behind inserts and fsyncs",
		daemons: 1, http: true, durable: true, ontologies: 22, classes: 40, depth: 1,
		stable: 650, churn: 350, requests: 400, publishEvery: 3, passes: 2, lapSeconds: 1.25,
	},
	{
		name:    "fed-lookup",
		why:     "3 daemons federated over loopback UDP, 3000 services on disjoint ontology homes: 1/3 of queries resolve locally, 2/3 take one forward; forwarding, wire codec, transport and Bloom summaries do the work",
		daemons: 3, ontologies: 21, classes: 40, depth: 1,
		stable: 2926, churn: 74, requests: 420, publishEvery: 20, passes: 2, lapSeconds: 1.25,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Admission fixtures of the durable workload. The token never expires, so
// the request bytes depend on the seed alone.
const (
	benchTenant = "bench"
	benchSecret = "bench-e2e-shared-secret"
)

// hitKey is one expected answer: which advertisement, at what distance.
type hitKey struct {
	service    string
	capability string
	distance   int
}

// service is one stable advertisement and the daemon that homes it.
type service struct {
	name string
	home int
	doc  []byte
	svc  *profile.Service
}

// churnService is one advertisement publishes rewrite: the same name
// alternates between two capabilities, so every publish changes the DAG
// and none can be short-circuited as a no-op. variants[0] is what preload
// leaves in the directory.
type churnService struct {
	name     string
	variants [2][]byte
	svcs     [2]*profile.Service
}

// request is one query document with its oracle answer over the stable
// pool. home is the daemon holding the advertisement it was derived from.
type request struct {
	doc  []byte
	cap  *profile.Capability
	home int
	want []hitKey
}

type opKind uint8

const (
	opQuery opKind = iota
	opPublish
)

// op is one step of a connection's plan: a query for requests[idx], or a
// publish of churn[idx].variants[variant].
type op struct {
	kind    opKind
	idx     int32
	variant uint8
}

// workload is everything generated from (spec, seed): the daemon only ever
// sees these documents.
type workload struct {
	spec         spec
	seed         int64
	ontologyDocs [][]byte
	classNames   [][]string
	classified   []*ontology.Classified
	// ontologyIndex maps an ontology URI to its position in classified.
	ontologyIndex map[string]int
	tables        *codes.Registry
	stable        []service
	churn         []churnService
	requests      []request
	// plan is one lap per connection; every lap replays it.
	plan [numConns][]op
	// token is the publisher credential of the durable workload.
	token string
	// stableNames tells oracle hits from churn hits in a reply.
	stableNames map[string]bool
}

// numConns is the number of closed-loop client connections, one per CPU
// of the reference host.
const numConns = 2

func ontologyURI(i int) string { return fmt.Sprintf("http://amigo.example/bench/ont%02d", i) }

// corpusSeed generates the directory every seed runs against: ontologies,
// stable advertisements and both variants of the churn advertisements.
// The corpus is part of the benchmark, like a dataset; -seed draws the
// traffic against it (which requests exist, which one each op sends, where
// in its group each publish falls). A corpus drawn per seed would move
// publish cost and hits per query by +-15% from seed to seed on the dense
// workload's two small ontologies — a difference between inputs, which no
// bound on a metric could tell from a difference between commits.
const corpusSeed = 2006

// generate builds the workload for one seed. The same (spec, seed) yields
// byte-identical documents and plans.
func generate(sp spec, seed int64) (*workload, error) {
	if sp.passes%2 != 0 || sp.churn%numConns != 0 {
		return nil, fmt.Errorf("%s: passes must be even and churn divisible by %d", sp.name, numConns)
	}
	rng := rand.New(rand.NewSource(corpusSeed))
	w := &workload{spec: sp, seed: seed, tables: codes.NewRegistry(), stableNames: make(map[string]bool),
		ontologyIndex: make(map[string]int)}

	for i := 0; i < sp.ontologies; i++ {
		o := gen.Ontology(gen.OntologyConfig{
			URI:        ontologyURI(i),
			Classes:    sp.classes,
			Properties: sp.classes / 3,
			Rand:       rng,
		})
		doc, err := ontology.Marshal(o)
		if err != nil {
			return nil, err
		}
		cl, err := ontology.Classify(o)
		if err != nil {
			return nil, err
		}
		table, err := codes.Encode(cl, codes.DefaultParams)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, c := range o.Classes() {
			names = append(names, c.Name)
		}
		w.ontologyDocs = append(w.ontologyDocs, doc)
		w.classNames = append(w.classNames, names)
		w.ontologyIndex[ontologyURI(i)] = len(w.classified)
		w.classified = append(w.classified, cl)
		w.tables.Register(table)
	}

	if sp.durable {
		tok, err := tenant.MintToken([]byte(benchSecret), benchTenant, tenant.RolePublisher, 0, nil)
		if err != nil {
			return nil, err
		}
		w.token = tok
	}
	qualify := func(name string) string {
		if sp.durable {
			return tenant.Qualify(benchTenant, name)
		}
		return name
	}

	// Stable services are dealt round-robin over the ontologies, so every
	// ontology (and with it every home daemon) carries the same share.
	for i := 0; i < sp.stable; i++ {
		oi := i % sp.ontologies
		name := qualify(fmt.Sprintf("svc%04d", i))
		svc := &profile.Service{Name: name, Provider: name + "-host",
			Provided: []*profile.Capability{w.randomCapability(rng, oi)}}
		doc, err := profile.Marshal(svc)
		if err != nil {
			return nil, err
		}
		w.stable = append(w.stable, service{name: name, home: oi % sp.daemons, doc: doc, svc: svc})
		w.stableNames[name] = true
	}
	// Churn services live on ontologies homed at daemon 0, the one clients
	// talk to.
	for i := 0; i < sp.churn; i++ {
		oi := (i * sp.daemons) % sp.ontologies
		oi -= oi % sp.daemons
		name := qualify(fmt.Sprintf("churn%04d", i))
		cs := churnService{name: name}
		for v := range cs.variants {
			svc := &profile.Service{Name: name, Provider: name + "-host",
				Provided: []*profile.Capability{w.randomCapability(rng, oi)}}
			if v == 1 && svc.Provided[0].Equal(cs.svcs[0].Provided[0]) {
				// The two variants must differ or the flip is a no-op.
				svc.Provided[0].Outputs = append(svc.Provided[0].Outputs, w.randomConcept(rng, oi))
			}
			doc, err := profile.Marshal(svc)
			if err != nil {
				return nil, err
			}
			cs.variants[v], cs.svcs[v] = doc, svc
		}
		w.churn = append(w.churn, cs)
	}

	// From here on the seed draws. Requests are derived from stable
	// advertisements spread evenly over the pool from a random start, so
	// each home daemon owns the same share of them for any seed.
	rng = rand.New(rand.NewSource(seed))
	first := rng.Intn(sp.stable)
	for i := 0; i < sp.requests; i++ {
		src := w.stable[(first+(i*sp.stable)/sp.requests)%sp.stable]
		cap := w.specialize(rng, src.svc.Provided[0], sp.depth)
		cap.Name = "want"
		doc, err := profile.Marshal(&profile.Service{
			Name: fmt.Sprintf("req%04d", i), Provider: "bench-client",
			Required: []*profile.Capability{cap},
		})
		if err != nil {
			return nil, err
		}
		w.requests = append(w.requests, request{doc: doc, cap: cap, home: src.home})
	}
	w.buildOracle()
	w.buildPlan(rng)
	return w, nil
}

func (w *workload) randomConcept(rng *rand.Rand, oi int) ontology.Ref {
	names := w.classNames[oi]
	return ontology.Ref{Ontology: ontologyURI(oi), Name: names[rng.Intn(len(names))]}
}

// randomCapability is the paper's evaluation shape: one capability per
// service, category plus three inputs and two outputs from one ontology.
// It and specialize repeat what gen.Workload does, because gen.Workload
// picks the ontology itself and draws everything from one stream: here the
// caller chooses the ontology (services are homed by it) and the corpus
// and the traffic draw from separate streams.
func (w *workload) randomCapability(rng *rand.Rand, oi int) *profile.Capability {
	c := &profile.Capability{Name: "cap0", Category: w.randomConcept(rng, oi)}
	for i := 0; i < 3; i++ {
		c.Inputs = append(c.Inputs, w.randomConcept(rng, oi))
	}
	for i := 0; i < 2; i++ {
		c.Outputs = append(c.Outputs, w.randomConcept(rng, oi))
	}
	return c
}

// specialize walks every concept of src up to depth levels down its
// hierarchy: the request stays answerable by src while other
// advertisements match it at nonzero distances.
func (w *workload) specialize(rng *rand.Rand, src *profile.Capability, depth int) *profile.Capability {
	down := func(ref ontology.Ref) ontology.Ref {
		cl := w.classified[w.ontologyIndex[ref.Ontology]]
		cur, ok := cl.Concept(ref.Name)
		if !ok {
			return ref
		}
		for i := 0; i < depth; i++ {
			kids := cl.Children(cur)
			if len(kids) == 0 {
				break
			}
			cur = kids[rng.Intn(len(kids))]
		}
		return ontology.Ref{Ontology: ref.Ontology, Name: cl.CanonicalName(cur)}
	}
	req := src.Clone()
	for i, ref := range req.Inputs {
		req.Inputs[i] = down(ref)
	}
	for i, ref := range req.Outputs {
		req.Outputs[i] = down(ref)
	}
	req.Category = down(req.Category)
	return req
}

// buildOracle answers every request with a linear scan over the stable
// pool — the trivially right implementation the daemon is checked against.
func (w *workload) buildOracle() {
	lin := registry.NewLinearDirectory(match.NewCodeMatcher(w.tables))
	for _, s := range w.stable {
		if err := lin.Register(s.svc); err != nil {
			panic(fmt.Sprintf("oracle: %v", err)) // generated services validate by construction
		}
	}
	for i := range w.requests {
		r := &w.requests[i]
		for _, res := range lin.Query(r.cap) {
			r.want = append(r.want, hitKey{res.Entry.Service, res.Entry.Capability.Name, res.Distance})
		}
		sortHits(r.want)
	}
}

func sortHits(h []hitKey) {
	sort.Slice(h, func(i, j int) bool {
		if h[i].service != h[j].service {
			return h[i].service < h[j].service
		}
		return h[i].capability < h[j].capability
	})
}

// buildPlan lays out one lap per connection. Connection c owns the c-th
// slice of the churn pool and walks it passes times, flipping each service
// to the variant it does not currently hold; between publishes it draws
// queries from the request pool. Preload leaves variant 0 live, so pass 0
// publishes variant 1, and an even number of passes restores variant 0.
func (w *workload) buildPlan(rng *rand.Rand) {
	own := w.spec.churn / numConns
	for c := 0; c < numConns; c++ {
		var plan []op
		for pass := 0; pass < w.spec.passes; pass++ {
			for k := 0; k < own; k++ {
				// The publish takes a random slot of its group: were it
				// always the first, the two connections would fall into
				// step and publish (or not) in unison.
				slot := rng.Intn(w.spec.publishEvery)
				for q := 0; q < w.spec.publishEvery; q++ {
					if q == slot {
						plan = append(plan, op{kind: opPublish, idx: int32(c*own + k), variant: uint8((pass + 1) % 2)})
					} else {
						plan = append(plan, op{kind: opQuery, idx: int32(rng.Intn(len(w.requests)))})
					}
				}
			}
		}
		w.plan[c] = plan
	}
}

// lapOps is the op count of one lap over all connections.
func (w *workload) lapOps() int {
	n := 0
	for _, p := range w.plan {
		n += len(p)
	}
	return n
}

// wireRequest mirrors sdpd's datagram request format.
type wireRequest struct {
	Op    string `json:"op"`
	Doc   string `json:"doc,omitempty"`
	Token string `json:"token,omitempty"`
}

// payloads are the pre-marshalled bytes of every distinct op, in the form
// the workload's front end takes them: one JSON datagram for UDP, one
// complete HTTP/1.1 request for the gateway.
type payloads struct {
	query   [][]byte
	publish [][2][]byte
}

// encodeQuery and encodePublish render one document for the workload's
// front end.
func (w *workload) encodeQuery(doc []byte) []byte   { return w.encode("query", "/query", doc) }
func (w *workload) encodePublish(doc []byte) []byte { return w.encode("register", "/services", doc) }

func (w *workload) encode(opName, path string, doc []byte) []byte {
	if w.spec.http {
		return httpRequestBytes(path, w.token, doc)
	}
	b, err := json.Marshal(wireRequest{Op: opName, Doc: string(doc), Token: w.token})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

func (w *workload) payloads() payloads {
	var p payloads
	for _, r := range w.requests {
		p.query = append(p.query, w.encodeQuery(r.doc))
	}
	for _, cs := range w.churn {
		p.publish = append(p.publish, [2][]byte{w.encodePublish(cs.variants[0]), w.encodePublish(cs.variants[1])})
	}
	return p
}

func httpRequestBytes(path, token string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: sdpd\r\nContent-Type: application/xml\r\nContent-Length: %d\r\n", path, len(body))
	if token != "" {
		head += "Authorization: Bearer " + token + "\r\n"
	}
	return append([]byte(head+"\r\n"), body...)
}
