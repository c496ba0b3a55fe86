package main

import (
	"encoding/json"
	"runtime"
	"testing"

	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
)

// datagramFixture is a server holding a directory of the live benchmark's
// size in the given shape, and what the live benchmark (bench/e2e) sends
// such a daemon over UDP, as internal/gen datagrams. A publish rewrites one
// of 64 churn names with the other of its two advertisements, so every one
// changes a graph; a query asks for a stored capability, specialized as the
// live requests are.
func datagramFixture(tb testing.TB, shape residentShape) (srv *server, publishes, queries [][]byte) {
	tb.Helper()
	const churn, requests = 64, 256
	datagram := func(op string, doc []byte) []byte {
		data, err := json.Marshal(sdpapi.Request{Op: op, Doc: string(doc)})
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	f := newResidentFixture(tb, bareConfig(), shape.ontologies, shape.classes, shape.live+churn)
	f.publishAll(tb)
	// The churn names are the last ones generated. A name's other
	// advertisement is its neighbour's capability under its own name;
	// one pass over the names publishes those, the next the names' own.
	services := f.w.Services[shape.live:]
	publishes = make([][]byte, 2*churn)
	for k, own := range services {
		other := services[(k+1)%churn].Clone()
		other.Name, other.Provider = own.Name, own.Provider
		doc, err := profile.Marshal(other)
		if err != nil {
			tb.Fatal(err)
		}
		publishes[k] = datagram(sdpapi.OpRegister, doc)
		publishes[churn+k] = datagram(sdpapi.OpRegister, f.w.ServiceDocs[shape.live+k])
	}
	queries = make([][]byte, requests)
	for i := range queries {
		doc, err := profile.Marshal(&profile.Service{Name: "client",
			Required: []*profile.Capability{f.w.Request(i*shape.live/requests, shape.depth)}})
		if err != nil {
			tb.Fatal(err)
		}
		queries[i] = datagram(sdpapi.OpQuery, doc)
	}
	return f.srv, publishes, queries
}

// replayDatagrams sends the server n datagrams, round robin, as the UDP
// front end would: handleDatagram, then encodeReply.
func replayDatagrams(tb testing.TB, srv *server, datagrams [][]byte, n int) {
	for i := 0; i < n; i++ {
		resp := srv.handleDatagram(datagrams[i%len(datagrams)])
		if _, err := encodeReply(resp); err != nil || !resp.OK {
			tb.Fatalf("datagram %d: %+v, %v", i, resp, err)
		}
	}
}

// BenchmarkHandleDatagram replays in process what the live benchmark sends
// a daemon, against a directory of the live size in both of its shapes
// (datagramFixture). With -cpuprofile it tells what share of a publish is
// classification and the match operation (ROADMAP item 5's stopping rule) by
// command.
func BenchmarkHandleDatagram(b *testing.B) {
	for _, shape := range residentShapes {
		srv, publishes, queries := datagramFixture(b, shape)
		for _, op := range []struct {
			name      string
			datagrams [][]byte
		}{{"publish", publishes}, {"query", queries}} {
			b.Run(op.name+"/"+shape.name, func(b *testing.B) {
				b.ReportAllocs()
				replayDatagrams(b, srv, op.datagrams, b.N)
			})
		}
	}
}

// TestSparsePublishBytes is the ceiling on what one publish datagram
// allocates in the lookup-sparse shape, where an advertisement is one more
// root of a ~90-node graph: 9 KB, of which ≈ 3 KB are copies that grow with
// that one graph (the draft of its slot table and walk order, for the graph
// the name's old advertisement leaves and the one its new advertisement
// joins) and nothing grows with the directory. It measures 7.3 KB; when
// every unrelated capability had a graph of its own, and a publish copied
// the list of them, it measured 24.6 KB.
func TestSparsePublishBytes(t *testing.T) {
	const ceiling = 9 << 10
	srv, publishes, _ := datagramFixture(t, residentShapes[0])
	replayDatagrams(t, srv, publishes, len(publishes)) // grow the writer's scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replayDatagrams(t, srv, publishes, len(publishes))
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(len(publishes))
	t.Logf("a sparse publish datagram allocates %d B", perOp)
	if perOp > ceiling {
		t.Errorf("a sparse publish datagram allocates %d B, over the ceiling of %d", perOp, ceiling)
	}
}
