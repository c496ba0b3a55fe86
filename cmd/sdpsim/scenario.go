package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/discovery"
	"sariadne/internal/election"
	"sariadne/internal/gen"
	"sariadne/internal/profile"
	"sariadne/internal/simnet"
	"sariadne/internal/telemetry"
)

// scenario is the parsed experiment description.
type scenario struct {
	Seed     int64        `json:"seed"`
	Topology topologySpec `json:"topology"`
	DropRate float64      `json:"dropRate"`
	Election electionSpec `json:"election"`
	Workload workloadSpec `json:"workload"`
	Events   []eventSpec  `json:"events"`
}

type topologySpec struct {
	Kind string `json:"kind"` // grid | line | ring | star | geometric
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	// Count and Radius apply to line/ring/star/geometric.
	Count  int     `json:"count"`
	Radius float64 `json:"radius"`
}

type electionSpec struct {
	AdvertiseIntervalMs int `json:"advertiseIntervalMs"`
	AdvertiseTTL        int `json:"advertiseTTL"`
	ElectionTimeoutMs   int `json:"electionTimeoutMs"`
	CandidacyWaitMs     int `json:"candidacyWaitMs"`
}

type workloadSpec struct {
	Ontologies int   `json:"ontologies"`
	Services   int   `json:"services"`
	Seed       int64 `json:"seed"`
}

type eventSpec struct {
	AtMs    int    `json:"atMs"`
	Action  string `json:"action"` // publish | query | kill | crash | restart | link | unlink | promote | report
	Node    string `json:"node"`
	Service int    `json:"service"`
	Request int    `json:"request"`
	Depth   int    `json:"depth"`
	A       string `json:"a"`
	B       string `json:"b"`
}

// parseScenario decodes and sanity-checks a scenario document.
func parseScenario(data []byte) (*scenario, error) {
	var sc scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	switch sc.Topology.Kind {
	case "grid":
		if sc.Topology.Rows <= 0 || sc.Topology.Cols <= 0 {
			return nil, fmt.Errorf("scenario: grid topology needs rows and cols")
		}
	case "line", "ring", "star":
		if sc.Topology.Count <= 0 {
			return nil, fmt.Errorf("scenario: %s topology needs count", sc.Topology.Kind)
		}
	case "geometric":
		if sc.Topology.Count <= 0 || sc.Topology.Radius <= 0 {
			return nil, fmt.Errorf("scenario: geometric topology needs count and radius")
		}
	default:
		return nil, fmt.Errorf("scenario: unknown topology kind %q", sc.Topology.Kind)
	}
	if sc.Workload.Services <= 0 {
		return nil, fmt.Errorf("scenario: workload.services must be positive")
	}
	valid := map[string]bool{"publish": true, "query": true, "kill": true,
		"crash": true, "restart": true,
		"link": true, "unlink": true, "promote": true, "report": true}
	for i, e := range sc.Events {
		if !valid[e.Action] {
			return nil, fmt.Errorf("scenario: event %d has unknown action %q", i, e.Action)
		}
	}
	sort.SliceStable(sc.Events, func(i, j int) bool { return sc.Events[i].AtMs < sc.Events[j].AtMs })
	return &sc, nil
}

// runScenario executes the timeline and writes the narration to w. A
// non-nil fault plan is armed the instant the timeline starts, so plan
// offsets and event stamps share one clock.
func runScenario(sc *scenario, faults *faultsSpec, timescale float64, w io.Writer) error {
	workload, err := gen.NewWorkload(gen.WorkloadConfig{
		Ontologies: sc.Workload.Ontologies,
		Services:   sc.Workload.Services,
		Seed:       sc.Workload.Seed,
	})
	if err != nil {
		return err
	}
	reg, err := workload.Registry(codes.DefaultParams)
	if err != nil {
		return err
	}

	net := simnet.New(simnet.Config{DropRate: sc.DropRate, Seed: sc.Seed})
	defer net.Close()
	var eps []*simnet.Endpoint
	switch sc.Topology.Kind {
	case "grid":
		eps, err = simnet.BuildGrid(net, "n", sc.Topology.Rows, sc.Topology.Cols)
	case "line":
		eps, err = simnet.BuildLine(net, "n", sc.Topology.Count)
	case "ring":
		eps, err = simnet.BuildRing(net, "n", sc.Topology.Count)
	case "star":
		eps, err = simnet.BuildStar(net, "n", sc.Topology.Count)
	case "geometric":
		eps, err = simnet.BuildGeometric(net, "n", sc.Topology.Count, sc.Topology.Radius, sc.Seed)
	}
	if err != nil {
		return err
	}

	ms := func(v, def int) time.Duration {
		if v <= 0 {
			v = def
		}
		return time.Duration(v) * time.Millisecond
	}
	cfg := discovery.Config{
		QueryTimeout:     time.Second,
		TickInterval:     2 * time.Millisecond,
		AnnounceInterval: 50 * time.Millisecond,
		Election: election.Config{
			AdvertiseInterval: ms(sc.Election.AdvertiseIntervalMs, 20),
			AdvertiseTTL:      max(sc.Election.AdvertiseTTL, 2),
			ElectionTimeout:   ms(sc.Election.ElectionTimeoutMs, 80),
			CandidacyWait:     ms(sc.Election.CandidacyWaitMs, 30),
		},
	}
	nodes := map[simnet.NodeID]*discovery.Node{}
	for _, ep := range eps {
		id := ep.ID()
		c := cfg
		c.Election.Score = func() election.Score {
			return election.Score{Coverage: len(net.Neighbors(id)), Resources: 0.5, Willing: true}
		}
		nodes[id] = discovery.NewNode(ep, discovery.NewSemanticBackend(reg), c)
		nodes[id].Start(context.Background())
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	fmt.Fprintf(w, "sdpsim: %d nodes (%s), %d services in workload, drop rate %.2f\n",
		len(eps), sc.Topology.Kind, sc.Workload.Services, sc.DropRate)

	if faults != nil {
		net.ApplyFaultPlan(faults.plan(timescale))
		fmt.Fprintf(w, "fault plan armed: %d partition(s), %d link fault(s), %d burst(s), %d churn entr(ies)\n",
			len(faults.Partitions), len(faults.Links), len(faults.Bursts), len(faults.Churn))
	}
	ctx := context.Background()
	start := time.Now()
	queriesOK, queriesEmpty, queriesErr, queriesPartial := 0, 0, 0, 0
	for _, e := range sc.Events {
		due := time.Duration(float64(e.AtMs)*timescale) * time.Millisecond
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		stamp := time.Since(start).Round(time.Millisecond)
		switch e.Action {
		case "publish":
			node, ok := nodes[simnet.NodeID(e.Node)]
			if !ok {
				return fmt.Errorf("publish: unknown node %q", e.Node)
			}
			if e.Service < 0 || e.Service >= len(workload.ServiceDocs) {
				return fmt.Errorf("publish: service index %d out of range", e.Service)
			}
			pctx, cancel := context.WithTimeout(ctx, time.Second)
			err := node.Publish(pctx, workload.ServiceDocs[e.Service])
			cancel()
			if err != nil {
				fmt.Fprintf(w, "[%7s] publish svc%04d @ %s: FAILED (%v)\n", stamp, e.Service, e.Node, err)
			} else {
				fmt.Fprintf(w, "[%7s] publish svc%04d @ %s: ok\n", stamp, e.Service, e.Node)
			}
		case "query":
			node, ok := nodes[simnet.NodeID(e.Node)]
			if !ok {
				return fmt.Errorf("query: unknown node %q", e.Node)
			}
			if e.Request < 0 || e.Request >= len(workload.Services) {
				return fmt.Errorf("query: request index %d out of range", e.Request)
			}
			doc, err := profile.Marshal(&profile.Service{
				Name:     fmt.Sprintf("query-%s-%d", e.Node, e.Request),
				Required: []*profile.Capability{workload.Request(e.Request, e.Depth)},
			})
			if err != nil {
				return err
			}
			qctx, cancel := context.WithTimeout(ctx, time.Second)
			res, err := node.DiscoverResult(qctx, doc)
			cancel()
			// A partial answer is still an answer; the marker tells the
			// reader which directories the retry machinery gave up on.
			marker := ""
			if err == nil && res.Partial() {
				queriesPartial++
				marker = fmt.Sprintf(" [partial: %d unreachable]", len(res.Unreachable))
			}
			switch {
			case err != nil:
				queriesErr++
				fmt.Fprintf(w, "[%7s] query req%d @ %s: error (%v)\n", stamp, e.Request, e.Node, err)
			case len(res.Hits) == 0:
				queriesEmpty++
				fmt.Fprintf(w, "[%7s] query req%d @ %s: no match%s\n", stamp, e.Request, e.Node, marker)
			default:
				queriesOK++
				best := res.Hits[0]
				fmt.Fprintf(w, "[%7s] query req%d @ %s: %d hit(s), best %s/%s d=%d via %s%s\n",
					stamp, e.Request, e.Node, len(res.Hits), best.Service, best.Capability, best.Distance, best.Directory, marker)
			}
		case "kill":
			id := simnet.NodeID(e.Node)
			node, ok := nodes[id]
			if !ok {
				return fmt.Errorf("kill: unknown node %q", e.Node)
			}
			node.Stop()
			delete(nodes, id)
			net.RemoveNode(id)
			fmt.Fprintf(w, "[%7s] kill %s\n", stamp, e.Node)
		case "crash":
			// Unlike kill, a crash keeps the node's identity and links: it
			// just stops moving traffic until a matching restart, modeling a
			// process crash (cached registrations at survivors stay valid).
			id := simnet.NodeID(e.Node)
			if _, ok := nodes[id]; !ok {
				return fmt.Errorf("crash: unknown node %q", e.Node)
			}
			net.SetNodeDown(id, true)
			fmt.Fprintf(w, "[%7s] crash %s\n", stamp, e.Node)
		case "restart":
			id := simnet.NodeID(e.Node)
			if _, ok := nodes[id]; !ok {
				return fmt.Errorf("restart: unknown node %q", e.Node)
			}
			net.SetNodeDown(id, false)
			fmt.Fprintf(w, "[%7s] restart %s\n", stamp, e.Node)
		case "link":
			if err := net.Connect(simnet.NodeID(e.A), simnet.NodeID(e.B)); err != nil {
				return fmt.Errorf("link: %w", err)
			}
			fmt.Fprintf(w, "[%7s] link %s-%s\n", stamp, e.A, e.B)
		case "unlink":
			net.Disconnect(simnet.NodeID(e.A), simnet.NodeID(e.B))
			fmt.Fprintf(w, "[%7s] unlink %s-%s\n", stamp, e.A, e.B)
		case "promote":
			node, ok := nodes[simnet.NodeID(e.Node)]
			if !ok {
				return fmt.Errorf("promote: unknown node %q", e.Node)
			}
			node.BecomeDirectory()
			fmt.Fprintf(w, "[%7s] promote %s to directory\n", stamp, e.Node)
		case "report":
			writeReport(w, stamp, net, nodes)
		}
	}
	fmt.Fprintf(w, "\nqueries: %d answered, %d empty, %d failed, %d partial\n",
		queriesOK, queriesEmpty, queriesErr, queriesPartial)
	// End-of-run telemetry: the same registry snapshot sdpd serves on
	// /metrics, so simulated and deployed runs are compared one-to-one.
	return telemetry.Default().WriteSummary(w)
}

// writeReport prints the protocol state: directories, per-node stats,
// traffic counters.
func writeReport(w io.Writer, stamp time.Duration, net *simnet.Network, nodes map[simnet.NodeID]*discovery.Node) {
	ids := make([]simnet.NodeID, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Fprintf(w, "[%7s] -- report --\n", stamp)
	for _, id := range ids {
		n := nodes[id]
		if n.Role() != election.Directory {
			continue
		}
		st := n.Stats()
		fmt.Fprintf(w, "  directory %s: %d registrations, %d queries served, %d forwarded, %d pruned\n",
			id, st.Registrations, st.QueriesServed, st.QueriesForwarded, st.ForwardsPruned)
	}
	if af := net.ActiveFaults(); len(af) > 0 {
		fmt.Fprintf(w, "  faults: %s\n", strings.Join(af, " "))
	}
	netStats := net.Stats()
	fmt.Fprintf(w, "  traffic: %d unicasts, %d broadcasts, %d delivered, %d dropped (%d by faults, %d partition-blocked)\n",
		netStats.UnicastsSent, netStats.BroadcastsSent, netStats.MessagesDelivered,
		netStats.MessagesDropped, netStats.FaultDrops, netStats.PartitionBlocks)
}
