package main

import (
	"encoding/json"
	"testing"

	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
)

// BenchmarkHandleDatagram replays in process what the live benchmark
// (bench/e2e) sends a daemon over UDP: internal/gen datagrams through
// handleDatagram and encodeReply, against a directory of the live size in
// both of its shapes. A publish rewrites one of 64 churn names with the
// other of its two advertisements, so every one changes a graph; a query
// asks for a stored capability, specialized as the live requests are. With
// -cpuprofile it tells what share of a publish is classification and the
// match operation (ROADMAP item 5's stopping rule) by command.
func BenchmarkHandleDatagram(b *testing.B) {
	const churn, requests = 64, 256
	datagram := func(op string, doc []byte) []byte {
		data, err := json.Marshal(sdpapi.Request{Op: op, Doc: string(doc)})
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	replay := func(b *testing.B, srv *server, datagrams [][]byte) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp := srv.handleDatagram(datagrams[i%len(datagrams)])
			if _, err := encodeReply(resp); err != nil || !resp.OK {
				b.Fatalf("datagram %d: %+v, %v", i, resp, err)
			}
		}
	}
	for _, shape := range residentShapes {
		f := newResidentFixture(b, shape.ontologies, shape.classes, shape.live+churn)
		f.publishAll(b)
		// The churn names are the last ones generated. A name's other
		// advertisement is its neighbour's capability under its own name;
		// one pass over the names publishes those, the next the names' own.
		services := f.w.Services[shape.live:]
		publishes := make([][]byte, 2*churn)
		for k, own := range services {
			other := services[(k+1)%churn].Clone()
			other.Name, other.Provider = own.Name, own.Provider
			doc, err := profile.Marshal(other)
			if err != nil {
				b.Fatal(err)
			}
			publishes[k] = datagram(sdpapi.OpRegister, doc)
			publishes[churn+k] = datagram(sdpapi.OpRegister, f.w.ServiceDocs[shape.live+k])
		}
		queries := make([][]byte, requests)
		for i := range queries {
			doc, err := profile.Marshal(&profile.Service{Name: "client",
				Required: []*profile.Capability{f.w.Request(i*shape.live/requests, shape.depth)}})
			if err != nil {
				b.Fatal(err)
			}
			queries[i] = datagram(sdpapi.OpQuery, doc)
		}
		b.Run("publish/"+shape.name, func(b *testing.B) { replay(b, f.srv, publishes) })
		b.Run("query/"+shape.name, func(b *testing.B) { replay(b, f.srv, queries) })
	}
}
