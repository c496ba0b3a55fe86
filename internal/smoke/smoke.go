// Package smoke is the boot-a-daemon harness behind the smoke commands
// (cmd/fedsmoke, cmd/soaksmoke): build the binaries from the tree, boot
// real sdpd processes on free loopback ports, wait for them over the
// client protocol (internal/sdpapi) and the HTTP gateway, restart them,
// stop them. The commands keep only their assertions.
package smoke

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"sariadne/internal/sdpapi"
)

// Ontologies and documents of the fixture every smoke drives: the media
// center advertisement answers the tablet's request. Paths are relative
// to the repository root, where `go run ./cmd/...` runs.
const (
	MediaCenterDoc   = "internal/profile/testdata/media-center.xml"
	TabletRequestDoc = "internal/profile/testdata/tablet-request.xml"
)

var ontologyFlags = []string{
	"-ontology", "internal/profile/testdata/media-ontology.xml",
	"-ontology", "internal/profile/testdata/servers-ontology.xml",
}

// Build compiles ./cmd/<name> into dir and returns the binary's path.
func Build(dir, name string) (string, error) {
	bin := filepath.Join(dir, name)
	build := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return "", fmt.Errorf("build %s: %w", name, err)
	}
	return bin, nil
}

// freePort reserves a loopback port by binding and releasing it on both
// TCP and UDP — a daemon binds either, depending on the flag the address
// is handed to.
func freePort() (string, error) {
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		addr := l.Addr().String()
		pc, err := net.ListenPacket("udp", addr)
		l.Close()
		if err != nil {
			lastErr = err
			continue
		}
		pc.Close()
		return addr, nil
	}
	return "", fmt.Errorf("no port free on both TCP and UDP: %w", lastErr)
}

// Daemon is one booted sdpd process, federated and with the HTTP gateway
// on. Its flags are kept so a restart rebinds the same addresses.
type Daemon struct {
	Name string
	// Client talks to the daemon's UDP client port.
	Client sdpapi.Client
	// Federate and HTTP are the backbone and gateway addresses.
	Federate string
	HTTP     string

	bin  string
	args []string
	cmd  *exec.Cmd
	log  bytes.Buffer // what the running process has logged, for Terminate
}

// Boot starts one daemon loaded with the fixture ontologies; flags are
// appended to the harness's own, and each peer becomes a -peer seed.
func Boot(bin, name string, flags []string, peers ...string) (*Daemon, error) {
	d := &Daemon{Name: name, bin: bin}
	d.Client.Timeout = 2 * time.Second
	for _, addr := range []*string{&d.Client.Addr, &d.Federate, &d.HTTP} {
		var err error
		if *addr, err = freePort(); err != nil {
			return nil, err
		}
	}
	d.args = append([]string{"-listen", d.Client.Addr, "-federate", d.Federate, "-http", d.HTTP}, ontologyFlags...)
	d.args = append(d.args, flags...)
	for _, p := range peers {
		d.args = append(d.args, "-peer", p)
	}
	if err := d.start(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Daemon) start() error {
	d.cmd = exec.Command(d.bin, d.args...)
	d.log.Reset()
	d.cmd.Stdout, d.cmd.Stderr = os.Stderr, io.MultiWriter(os.Stderr, &d.log)
	if err := d.cmd.Start(); err != nil {
		return fmt.Errorf("start sdpd %s: %w", d.Name, err)
	}
	return nil
}

// Stop kills the daemon and reaps it; stopping twice is harmless.
func (d *Daemon) Stop() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// Terminate asks the daemon to shut down (SIGTERM) and reaps it. It
// returns what the process logged and how it exited: nil for status 0.
func (d *Daemon) Terminate() (log string, err error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return "", err
	}
	err = d.cmd.Wait()
	return d.log.String(), err
}

// Restart stops the daemon and starts it again on the same addresses and
// flags.
func (d *Daemon) Restart() error {
	d.Stop()
	return d.start()
}

// Federation is three daemons on loopback: a is the seed, b peers with
// it, c with both, so summaries and queries travel every edge.
type Federation [3]*Daemon

// BootFederation boots the three daemons and waits until each answers.
// flags gives each daemon's extra flags by name.
func BootFederation(bin string, deadline time.Time, flags func(name string) []string) (f Federation, err error) {
	defer func() {
		if err != nil {
			f.Stop()
		}
	}()
	var peers []string
	for i, name := range []string{"a", "b", "c"} {
		if f[i], err = Boot(bin, name, flags(name), peers...); err != nil {
			return f, err
		}
		peers = append(peers, f[i].Federate)
	}
	for _, d := range f {
		if err := d.AwaitUp(deadline); err != nil {
			return f, err
		}
	}
	return f, nil
}

// Stop stops every daemon that was booted.
func (f Federation) Stop() {
	for _, d := range f {
		if d != nil {
			d.Stop()
		}
	}
}

// PublishAndResolve is the cross-backbone round trip every smoke starts
// from: register doc on b, wait until c holds b's summary, resolve the
// tablet's request from c — the only directory that can answer is b's.
func (f Federation) PublishAndResolve(deadline time.Time, doc, token string) (*sdpapi.Response, error) {
	b, c := f[1], f[2]
	if _, err := b.Do(sdpapi.Request{Op: sdpapi.OpRegister, Doc: doc, Token: token}); err != nil {
		return nil, err
	}
	if err := c.AwaitSummary(deadline, 1); err != nil {
		return nil, err
	}
	req, err := os.ReadFile(TabletRequestDoc)
	if err != nil {
		return nil, err
	}
	return c.Do(sdpapi.Request{Op: sdpapi.OpQuery, Doc: string(req)})
}

// Do sends one request to the daemon and turns a refusal into an error.
func (d *Daemon) Do(req sdpapi.Request) (*sdpapi.Response, error) {
	resp, err := d.Client.Do(req)
	if err == nil {
		err = resp.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", req.Op, d.Name, err)
	}
	return resp, nil
}

// Await retries try every 50ms until it succeeds; past the deadline it
// gives up with the last failure, prefixed by what was being waited for.
func (d *Daemon) Await(deadline time.Time, what string, try func() error) error {
	for {
		err := try()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s never %s: %w", d.Name, what, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// AwaitUp polls the client port until the daemon answers a stats op.
func (d *Daemon) AwaitUp(deadline time.Time) error {
	return d.Await(deadline, "answered on "+d.Client.Addr, func() error {
		_, err := d.Do(sdpapi.Request{Op: sdpapi.OpStats})
		return err
	})
}

// AwaitHealthy polls GET /healthz until the daemon reports 200: every
// component probe (store, gateway, backbone transport) green.
func (d *Daemon) AwaitHealthy(deadline time.Time) error {
	return d.Await(deadline, "turned healthy", func() error {
		_, _, err := d.Get("/healthz")
		return err
	})
}

// AwaitSummary polls the peers op until some backbone peer advertises at
// least want entries, i.e. a remote directory's summary has arrived.
func (d *Daemon) AwaitSummary(deadline time.Time, want int) error {
	return d.Await(deadline, "saw a peer summary", func() error {
		resp, err := d.Do(sdpapi.Request{Op: sdpapi.OpPeers})
		if err != nil {
			return err
		}
		for _, p := range resp.Peers {
			if p.HasSummary && p.Entries >= want {
				return nil
			}
		}
		return fmt.Errorf("no peer of %d advertises >=%d entries", len(resp.Peers), want)
	})
}

// Get fetches one gateway path, insisting on a 200.
func (d *Daemon) Get(path string) ([]byte, http.Header, error) {
	resp, err := http.Get("http://" + d.HTTP + path)
	if err != nil {
		return nil, nil, fmt.Errorf("daemon %s: GET %s: %w", d.Name, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("daemon %s: GET %s: %w", d.Name, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("daemon %s: GET %s: status %d", d.Name, path, resp.StatusCode)
	}
	return body, resp.Header, nil
}

// Sample reads one label-free series out of a /metrics page.
func Sample(exposition []byte, name string) (float64, bool) {
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(exposition)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	return v, err == nil
}
