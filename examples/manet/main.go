// Command manet demonstrates the full S-Ariadne protocol on a simulated
// mobile ad hoc network: nodes on a grid elect their own directories,
// devices publish semantic services, queries are resolved locally or
// forwarded across the directory backbone using Bloom-filter summaries,
// and the system survives the death of a directory (re-election plus
// automatic re-publication).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sariadne"
)

const (
	devURI = "http://manet.example/ont/devices"
	resURI = "http://manet.example/ont/resources"
)

func dev(name string) sariadne.Ref { return sariadne.Ref{Ontology: devURI, Name: name} }
func res(name string) sariadne.Ref { return sariadne.Ref{Ontology: resURI, Name: name} }

func main() {
	sys := sariadne.NewSystem()
	devices := sariadne.NewOntology(devURI, "1")
	for _, c := range []sariadne.Class{
		{Name: "Device"},
		{Name: "Camera", SubClassOf: []string{"Device"}},
		{Name: "Display", SubClassOf: []string{"Device"}},
		{Name: "Sensor", SubClassOf: []string{"Device"}},
		{Name: "GPSSensor", SubClassOf: []string{"Sensor"}},
	} {
		devices.MustAddClass(c)
	}
	resources := sariadne.NewOntology(resURI, "1")
	for _, c := range []sariadne.Class{
		{Name: "Data"},
		{Name: "Image", SubClassOf: []string{"Data"}},
		{Name: "Position", SubClassOf: []string{"Data"}},
		{Name: "Coordinates", SubClassOf: []string{"Position"}},
	} {
		resources.MustAddClass(c)
	}
	for _, o := range []*sariadne.Ontology{devices, resources} {
		if err := sys.AddOntology(o); err != nil {
			log.Fatal(err)
		}
	}

	// A 4×4 grid of mobile nodes; elections run with fast timers so the
	// example converges quickly.
	net := sys.NewNetwork(sariadne.NetworkConfig{
		QueryTimeout:     time.Second,
		AnnounceInterval: 100 * time.Millisecond,
		Election: sariadne.ElectionConfig{
			AdvertiseInterval: 20 * time.Millisecond,
			AdvertiseTTL:      2,
			ElectionTimeout:   80 * time.Millisecond,
			CandidacyWait:     30 * time.Millisecond,
		},
	})
	defer net.Stop()

	const side = 4
	id := func(r, c int) sariadne.NodeID {
		return sariadne.NodeID(fmt.Sprintf("n%d%d", r, c))
	}
	nodes := map[sariadne.NodeID]*sariadne.Node{}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			n, err := net.AddNode(id(r, c))
			if err != nil {
				log.Fatal(err)
			}
			nodes[id(r, c)] = n
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				mustLink(net, id(r, c), id(r, c+1))
			}
			if r+1 < side {
				mustLink(net, id(r, c), id(r+1, c))
			}
		}
	}
	net.Start(context.Background())

	fmt.Println("waiting for directory elections...")
	waitFor(5*time.Second, func() bool {
		for _, n := range nodes {
			if _, ok := n.DirectoryID(); !ok {
				return false
			}
		}
		return true
	})
	var directories []sariadne.NodeID
	for nid, n := range nodes {
		if n.IsDirectory() {
			directories = append(directories, nid)
		}
	}
	fmt.Printf("elected directories: %v\n\n", directories)

	// A camera node in one corner publishes; a display node in the
	// opposite corner discovers.
	camera := &sariadne.Service{
		Name: "CornerCamera", Provider: "n00",
		Provided: []*sariadne.Capability{{
			Name:     "CaptureImage",
			Category: dev("Camera"),
			Outputs:  []sariadne.Ref{res("Image")},
		}},
	}
	gps := &sariadne.Service{
		Name: "EdgeGPS", Provider: "n03",
		Provided: []*sariadne.Capability{{
			Name:     "ReportPosition",
			Category: dev("GPSSensor"),
			Outputs:  []sariadne.Ref{res("Coordinates")},
		}},
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := nodes[id(0, 0)].Publish(ctx, camera); err != nil {
		log.Fatalf("publish camera: %v", err)
	}
	if err := nodes[id(0, 3)].Publish(ctx, gps); err != nil {
		log.Fatalf("publish gps: %v", err)
	}
	// Give summary pushes a moment to cross the backbone.
	time.Sleep(100 * time.Millisecond)

	discover := func(from sariadne.NodeID, what string, req *sariadne.Capability) {
		// Summaries and backbone handshakes propagate asynchronously;
		// retry briefly like a real client would.
		var hits []sariadne.Hit
		var err error
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			hits, err = nodes[from].DiscoverCapability(ctx, req)
			if err == nil && len(hits) > 0 {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			fmt.Printf("%s from %s: error: %v\n", what, from, err)
			return
		}
		if len(hits) == 0 {
			fmt.Printf("%s from %s: not found\n", what, from)
			return
		}
		for _, h := range hits {
			fmt.Printf("%s from %s: %s/%s (distance %d, via directory %s)\n",
				what, from, h.Service, h.Capability, h.Distance, h.Directory)
		}
	}

	discover(id(3, 3), "find a camera", &sariadne.Capability{
		Name: "NeedCamera", Category: dev("Camera"),
		Outputs: []sariadne.Ref{res("Image")},
	})
	discover(id(3, 0), "find a position source", &sariadne.Capability{
		Name: "NeedPosition", Category: dev("GPSSensor"),
		Outputs: []sariadne.Ref{res("Coordinates")},
	})

	// Kill every elected directory: the network re-elects and publishers
	// re-register automatically.
	fmt.Println("\n-- all directories fail --")
	for _, d := range directories {
		if d == id(0, 0) || d == id(3, 3) {
			continue // keep the endpoints of the demo alive
		}
		net.RemoveNode(d)
		delete(nodes, d)
	}
	fmt.Println("waiting for re-election and re-publication...")
	waitFor(10*time.Second, func() bool {
		hits, err := nodes[id(3, 3)].DiscoverCapability(ctx, &sariadne.Capability{
			Name: "NeedCamera", Category: dev("Camera"),
			Outputs: []sariadne.Ref{res("Image")},
		})
		return err == nil && len(hits) > 0
	})
	discover(id(3, 3), "find a camera (after churn)", &sariadne.Capability{
		Name: "NeedCamera", Category: dev("Camera"),
		Outputs: []sariadne.Ref{res("Image")},
	})

	st := net.Stats()
	fmt.Printf("\ntraffic: %d unicasts, %d broadcasts, %d deliveries, %d link traversals\n",
		st.UnicastsSent, st.BroadcastsSent, st.MessagesDelivered, st.LinkTraversals)
}

func mustLink(net *sariadne.Network, a, b sariadne.NodeID) {
	if err := net.Link(a, b); err != nil {
		log.Fatal(err)
	}
}

func waitFor(timeout time.Duration, cond func() bool) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	log.Fatal("timeout waiting for condition")
}
