package discovery

import (
	"context"
	"errors"
	"testing"
	"time"

	"sariadne/internal/election"
)

// TestStepDownHandover: a directory gracefully retires, transferring its
// cached advertisements to a peer directory; queries keep resolving
// through the successor without waiting for lease-refresh repair.
func TestStepDownHandover(t *testing.T) {
	_, nodes := testCluster(t, 5)
	nodes[1].BecomeDirectory()
	nodes[3].BecomeDirectory()
	waitUntil(t, 2*time.Second, "backbone handshake", func() bool {
		return len(nodes[1].Peers()) == 1 && len(nodes[3].Peers()) == 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	waitUntil(t, 2*time.Second, "n0 directory", func() bool {
		d, ok := nodes[0].DirectoryID()
		return ok && d == "n1"
	})
	if err := nodes[0].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	if nodes[1].Backend().Len() == 0 {
		t.Fatal("setup: n1 holds nothing")
	}

	// n1 steps down, handing its cache to n3.
	if err := nodes[1].StepDown("n3"); err != nil {
		t.Fatalf("StepDown: %v", err)
	}
	if nodes[1].Role() == election.Directory {
		t.Fatal("n1 still a directory after StepDown")
	}
	if nodes[1].Backend().Len() != 0 {
		t.Fatal("n1 still holds advertisements after StepDown")
	}
	waitUntil(t, 2*time.Second, "handover arrival", func() bool {
		return nodes[3].Backend().Len() == 2
	})

	// Discovery through the remaining directory resolves the transferred
	// advertisement. (n0 may need to re-learn its directory first.)
	waitUntil(t, 3*time.Second, "post-handover discovery", func() bool {
		qctx, qcancel := context.WithTimeout(ctx, 300*time.Millisecond)
		defer qcancel()
		hits, err := nodes[4].Discover(qctx, pdaRequestDoc(t))
		return err == nil && len(hits) == 1 && hits[0].Directory == "n3"
	})
}

func TestStepDownRequiresDirectoryRole(t *testing.T) {
	_, nodes := testCluster(t, 2)
	if err := nodes[0].StepDown("n1"); !errors.Is(err, ErrNotDirectory) {
		t.Fatalf("StepDown on member = %v, want ErrNotDirectory", err)
	}
}

// TestStepDownToItselfRefused: handing the content to itself would
// register it and then withdraw it, so a directory refuses and keeps both
// its role and its store.
func TestStepDownToItselfRefused(t *testing.T) {
	_, nodes := testCluster(t, 1)
	nodes[0].BecomeDirectory()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := nodes[0].Publish(ctx, workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].StepDown(nodes[0].ID()); err == nil {
		t.Fatal("StepDown to itself accepted")
	}
	if nodes[0].Role() != election.Directory || nodes[0].Backend().Len() == 0 {
		t.Fatalf("after a refused StepDown: role %v, %d entries", nodes[0].Role(), nodes[0].Backend().Len())
	}
}
