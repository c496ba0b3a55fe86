package simnet

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestAddRemoveNodes(t *testing.T) {
	n := New(Config{})
	a, err := n.AddNode("a")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != "a" {
		t.Fatalf("ID = %s", a.ID())
	}
	if _, err := n.AddNode("a"); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("duplicate add = %v", err)
	}
	if _, err := n.AddNode("b"); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("a", "b"); err != nil {
		t.Fatal(err)
	}
	if got := n.Neighbors("a"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Neighbors = %v", got)
	}
	n.RemoveNode("b")
	if got := n.Neighbors("a"); len(got) != 0 {
		t.Fatalf("Neighbors after removal = %v", got)
	}
	if got := n.Nodes(); len(got) != 1 {
		t.Fatalf("Nodes = %v", got)
	}
	n.RemoveNode("nope") // no-op
}

func TestConnectValidation(t *testing.T) {
	n := New(Config{})
	if _, err := n.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("a", "missing"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Connect = %v", err)
	}
	if err := n.Connect("missing", "a"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Connect = %v", err)
	}
	if err := n.Connect("a", "a"); err != nil {
		t.Fatalf("self connect should be a no-op, got %v", err)
	}
}

func TestUnicastRouting(t *testing.T) {
	n := New(Config{})
	eps, err := BuildLine(n, "n", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send("n4", "hello"); err != nil {
		t.Fatal(err)
	}
	msg, err := eps[4].Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != "n0" || msg.To != "n4" || msg.Hops != 4 || msg.Payload != "hello" {
		t.Fatalf("msg = %+v", msg)
	}
	st := n.Stats()
	if st.UnicastsSent != 1 || st.MessagesDelivered != 1 || st.LinkTraversals != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnicastNoRoute(t *testing.T) {
	n := New(Config{})
	a, _ := n.AddNode("a")
	if _, err := n.AddNode("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", 1); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("Send = %v, want ErrNoRoute", err)
	}
	if err := a.Send("missing", 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Send = %v, want ErrUnknownNode", err)
	}
	// A node delivers to itself: a send to its own ID is refused and
	// counts as no traffic.
	if err := a.Send("a", "self"); err == nil {
		t.Fatal("self Send succeeded")
	}
	if st := n.Stats(); st.UnicastsSent != 0 || len(a.inbox) != 0 {
		t.Fatalf("self Send left stats %+v, %d queued", st, len(a.inbox))
	}
}

func TestBroadcastTTL(t *testing.T) {
	n := New(Config{})
	eps, err := BuildLine(n, "n", 6)
	if err != nil {
		t.Fatal(err)
	}
	reached, err := eps[0].Broadcast(2, "adv")
	if err != nil {
		t.Fatal(err)
	}
	if reached != 2 { // n1 and n2
		t.Fatalf("reached = %d, want 2", reached)
	}
	for i, want := range []int{0, 1, 1, 0, 0, 0} {
		got := len(eps[i].Inbox())
		if got != want {
			t.Errorf("node %d inbox = %d, want %d", i, got, want)
		}
	}
	// Hop count on delivered broadcast.
	msg := <-eps[2].Inbox()
	if !msg.Broadcast || msg.Hops != 2 {
		t.Fatalf("broadcast msg = %+v", msg)
	}
}

func TestDropRate(t *testing.T) {
	n := New(Config{DropRate: 1.0})
	eps, err := BuildLine(n, "n", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send("n1", "x"); err != nil {
		t.Fatal(err) // loss is silent
	}
	if got := len(eps[1].Inbox()); got != 0 {
		t.Fatalf("inbox = %d, want 0 (all dropped)", got)
	}
	if st := n.Stats(); st.MessagesDropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if reached, err := eps[0].Broadcast(3, "y"); err != nil || reached != 0 {
		t.Fatalf("broadcast reached %d, %v", reached, err)
	}
}

func TestQueueOverflow(t *testing.T) {
	n := New(Config{QueueSize: 2})
	eps, err := BuildLine(n, "n", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := eps[0].Send("n1", i); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.MessagesDelivered != 2 || st.MessagesOverflowed != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLatencyDelivery(t *testing.T) {
	n := New(Config{LatencyPerHop: 5 * time.Millisecond})
	eps, err := BuildLine(n, "n", 3)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := eps[0].Send("n2", "slow"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	msg, err := eps[2].Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("delivered after %v, want >= 10ms (2 hops)", elapsed)
	}
	if msg.Hops != 2 {
		t.Fatalf("Hops = %d", msg.Hops)
	}
	n.Close()
}

func TestRecvContextCancel(t *testing.T) {
	n := New(Config{})
	a, _ := n.AddNode("a")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Recv(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Recv = %v", err)
	}
}

func TestClose(t *testing.T) {
	n := New(Config{})
	a, _ := n.AddNode("a")
	n.Close()
	n.Close() // idempotent
	if err := a.Send("a", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v", err)
	}
	if _, err := a.Broadcast(1, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Broadcast after close = %v", err)
	}
	if _, err := n.AddNode("b"); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddNode after close = %v", err)
	}
	if _, ok := <-a.Inbox(); ok {
		t.Fatal("inbox not closed")
	}
	if _, err := a.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after close = %v", err)
	}
}

func TestHopDistance(t *testing.T) {
	n := New(Config{})
	if _, err := BuildRing(n, "r", 6); err != nil {
		t.Fatal(err)
	}
	d, ok := n.HopDistance("r0", "r3")
	if !ok || d != 3 {
		t.Fatalf("HopDistance = %d, %v; want 3", d, ok)
	}
	d, ok = n.HopDistance("r0", "r5") // around the ring
	if !ok || d != 1 {
		t.Fatalf("HopDistance = %d, %v; want 1", d, ok)
	}
	if _, ok := n.HopDistance("r0", "missing"); ok {
		t.Fatal("HopDistance to unknown node succeeded")
	}
	n.Disconnect("r0", "r1")
	n.Disconnect("r0", "r5")
	if _, ok := n.HopDistance("r0", "r3"); ok {
		t.Fatal("HopDistance across partition succeeded")
	}
}

func TestNodesWithin(t *testing.T) {
	n := New(Config{})
	if _, err := BuildLine(n, "n", 6); err != nil {
		t.Fatal(err)
	}
	got := n.NodesWithin("n0", 2)
	if len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("NodesWithin = %v", got)
	}
}

func TestTopologies(t *testing.T) {
	t.Run("grid", func(t *testing.T) {
		n := New(Config{})
		eps, err := BuildGrid(n, "g", 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(eps) != 12 {
			t.Fatalf("len = %d", len(eps))
		}
		// Corner has 2 neighbors, center has 4.
		if got := len(n.Neighbors("g0")); got != 2 {
			t.Errorf("corner neighbors = %d", got)
		}
		if got := len(n.Neighbors("g5")); got != 4 {
			t.Errorf("center neighbors = %d", got)
		}
		d, ok := n.HopDistance("g0", "g11")
		if !ok || d != 5 { // manhattan distance (2,3)
			t.Errorf("grid distance = %d, %v", d, ok)
		}
	})
	t.Run("star", func(t *testing.T) {
		n := New(Config{})
		if _, err := BuildStar(n, "s", 5); err != nil {
			t.Fatal(err)
		}
		if got := len(n.Neighbors("s0")); got != 4 {
			t.Errorf("hub neighbors = %d", got)
		}
		d, _ := n.HopDistance("s1", "s4")
		if d != 2 {
			t.Errorf("leaf-to-leaf = %d", d)
		}
	})
	t.Run("geometric deterministic", func(t *testing.T) {
		n1 := New(Config{})
		n2 := New(Config{})
		if _, err := BuildGeometric(n1, "p", 30, 0.3, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := BuildGeometric(n2, "p", 30, 0.3, 7); err != nil {
			t.Fatal(err)
		}
		for _, id := range n1.Nodes() {
			a := n1.Neighbors(id)
			b := n2.Neighbors(id)
			if len(a) != len(b) {
				t.Fatalf("nondeterministic layout at %s", id)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("nondeterministic layout at %s", id)
				}
			}
		}
	})
}

// TestPropertyBroadcastReach: on random geometric topologies with no loss,
// a TTL-bounded broadcast reaches exactly the nodes NodesWithin reports,
// each with the minimal hop count.
func TestPropertyBroadcastReach(t *testing.T) {
	prop := func(seed int64, sz, ttl8 uint8) bool {
		count := int(sz%20) + 2
		ttl := int(ttl8%4) + 1
		n := New(Config{QueueSize: 1024})
		defer n.Close()
		eps, err := BuildGeometric(n, "p", count, 0.4, seed)
		if err != nil {
			return false
		}
		origin := eps[int(seed%int64(count)+int64(count))%count]
		reached, err := origin.Broadcast(ttl, "x")
		if err != nil {
			return false
		}
		want := n.NodesWithin(origin.ID(), ttl)
		if reached != len(want) {
			return false
		}
		wantSet := map[NodeID]bool{}
		for _, id := range want {
			wantSet[id] = true
		}
		for _, ep := range eps {
			got := len(ep.Inbox())
			if wantSet[ep.ID()] {
				if got != 1 {
					return false
				}
				msg := <-ep.Inbox()
				d, ok := n.HopDistance(origin.ID(), ep.ID())
				if !ok || msg.Hops != d {
					return false
				}
			} else if got != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
