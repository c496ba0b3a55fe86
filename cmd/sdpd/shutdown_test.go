package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sariadne/internal/profile"
	"sariadne/internal/sdpapi"
	"sariadne/internal/smoke"
	"sariadne/internal/store"
	"sariadne/internal/store/boltlike"
	"sariadne/internal/store/memstore"
	"sariadne/internal/testutil"
)

// countingStore records, in order, the calls a shutdown is judged by.
type countingStore struct {
	store.Store
	mu    sync.Mutex
	calls []string
}

func (c *countingStore) record(call string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = append(c.calls, call)
}

func (c *countingStore) Append(rec store.Record) error {
	c.record("append")
	return c.Store.Append(rec)
}

func (c *countingStore) Close() error {
	c.record("close")
	return c.Store.Close()
}

func (c *countingStore) seen() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.calls...)
}

// freeUDPAddr reserves a loopback UDP port and releases it.
func freeUDPAddr(t *testing.T) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	return pc.LocalAddr().String()
}

// TestShutdownClosesTheStoreOnce runs a daemon the way main does — boot,
// serve both front ends, cancel, close — and holds the shutdown to its
// promise: the front ends are gone when run returns, and the store is
// closed exactly once, after the last acknowledged append.
func TestShutdownClosesTheStoreOnce(t *testing.T) {
	st := &countingStore{Store: memstore.New()}
	cfg := testConfig(t)
	cfg.store, cfg.listen, cfg.http, cfg.federate = st, freeUDPAddr(t), "127.0.0.1:0", "127.0.0.1:0"
	s := bootServer(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ended := make(chan error, 1)
	go func() { ended <- s.run(ctx) }()

	client := sdpapi.Client{Addr: cfg.listen, Timeout: time.Second}
	testutil.WaitFor(t, 5*time.Second, func() bool {
		resp, err := client.Do(sdpapi.Request{Op: sdpapi.OpStats})
		return err == nil && resp.OK && s.httpLive.Load()
	}, "front ends never came up")
	for i := 1; i <= 2; i++ {
		resp, err := client.Do(sdpapi.Request{Op: sdpapi.OpRegister, Doc: mustDoc(t, profile.WorkstationService())})
		if err != nil || !resp.OK || resp.Version != uint64(i) {
			t.Fatalf("publish %d: %+v, %v", i, resp, err)
		}
	}

	cancel()
	if err := <-ended; err != nil {
		t.Fatalf("run after a cancel: %v", err)
	}
	if s.httpLive.Load() {
		t.Error("the gateway is still serving after run returned")
	}
	if _, err := client.Do(sdpapi.Request{Op: sdpapi.OpStats}); err == nil {
		t.Error("the UDP front end still answers after run returned")
	}
	if got := st.seen(); len(got) != 2 {
		t.Fatalf("before close the store saw %v, want the two appends", got)
	}
	s.close()
	s.close()
	if got, want := st.seen(), []string{"append", "append", "close"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("the store saw %v, want %v", got, want)
	}
	if err := s.fed.tr.(interface{ Healthy() error }).Healthy(); err == nil {
		t.Error("the backbone transport is still open after close")
	}
}

// TestFailedBootReleasesWhatItOpened: a boot that fails part-way returns
// the error with everything it had built torn down — the store closed,
// the compactor's and the health prober's loops gone.
func TestFailedBootReleasesWhatItOpened(t *testing.T) {
	taken, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, stage string
		breakIt     func(*config)
	}{
		{"federate port taken", "federation", func(c *config) { c.federate = taken.LocalAddr().String() }},
		{"journal under a file", "telemetry journal", func(c *config) {
			c.federate, c.telemetryJournal = "127.0.0.1:0", filepath.Join(file, "tj")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &countingStore{Store: memstore.New()}
			cfg := testConfig(t)
			cfg.store, cfg.compactEvery, cfg.healthInterval = st, time.Millisecond, time.Millisecond
			tc.breakIt(&cfg)
			s, err := newServer(cfg)
			if err == nil {
				s.close()
				t.Fatal("the daemon booted")
			}
			if s != nil || !strings.HasPrefix(err.Error(), tc.stage+": ") {
				t.Fatalf("newServer = %v, %v; want no server and the %s error", s, err, tc.stage)
			}
			if got := st.seen(); !reflect.DeepEqual(got, []string{"close"}) {
				t.Errorf("the injected store saw %v, want one close", got)
			}
			testutil.WaitFor(t, 2*time.Second, func() bool {
				stacks := make([]byte, 1<<20)
				return !strings.Contains(string(stacks[:runtime.Stack(stacks, true)]), "cmd/sdpd.every")
			}, "a ticker loop of the failed boot is still running")
		})
	}
}

// TestSIGTERMShutsDownCleanly drives the real binary: two publishes
// acknowledged under -sync-every 8, SIGTERM, and the process logs its
// shutdown, exits 0 and leaves a store that replays both.
func TestSIGTERMShutsDownCleanly(t *testing.T) {
	t.Chdir(filepath.Join("..", "..")) // smoke builds and boots from the repository root
	dir := t.TempDir()
	bin, err := smoke.Build(dir, "sdpd")
	if err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(dir, "state.bolt")
	d, err := smoke.Boot(bin, "a", []string{"-state", state, "-sync-every", "8"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	if err := d.AwaitUp(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(smoke.MediaCenterDoc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Do(sdpapi.Request{Op: sdpapi.OpRegister, Doc: string(doc)}); err != nil {
			t.Fatal(err)
		}
	}

	log, err := d.Terminate()
	if err != nil {
		t.Fatalf("SIGTERM: the daemon exited with %v, want status 0", err)
	}
	if strings.Count(log, "shutdown complete") != 1 || strings.Contains(log, "level=ERROR") {
		t.Fatalf("the daemon's log of a clean shutdown:\n%s", log)
	}
	st, err := boltlike.Open(state, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }() // read only
	var versions []uint64
	if _, err := st.Replay(func(rec store.Record) error {
		versions = append(versions, rec.Version)
		return nil
	}); err != nil || !reflect.DeepEqual(versions, []uint64{1, 2}) {
		t.Fatalf("the reopened store replays versions %v (%v), want 1 and 2", versions, err)
	}
}
