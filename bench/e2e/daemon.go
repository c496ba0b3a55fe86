package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/sdpd from the working tree into dir. The go
// tool's build cache makes a repeat build of an unchanged tree a no-op.
func buildDaemon(repoRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "sdpd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sdpd")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/sdpd: %v\n%s", err, out)
	}
	return bin, nil
}

// Daemon ports come from below Linux's default ephemeral range
// (32768-60999), so the kernel never hands one to a client socket — the
// harness's own pollers open hundreds per boot — between freePort's probe
// and the daemon's bind. The walk starts at a PID-dependent port so two
// harnesses on one host do not probe in step.
const portLow, portHigh = 20000, 32000

var nextPort = portLow + os.Getpid()%(portHigh-portLow)

// freePort returns a loopback port free on both UDP and TCP (a daemon's
// client port is UDP, its gateway TCP; one probe serves both).
func freePort() (int, error) {
	for attempt := 0; attempt < portHigh-portLow; attempt++ {
		port := nextPort
		if nextPort++; nextPort == portHigh {
			nextPort = portLow
		}
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			continue
		}
		l.Close()
		u, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
		if err != nil {
			continue
		}
		u.Close()
		return port, nil
	}
	return 0, fmt.Errorf("no loopback port in %d-%d free on both tcp and udp", portLow, portHigh)
}

// daemon is one sdpd process. Its addresses are fixed when it is first
// configured, so a restart comes back where clients expect it.
type daemon struct {
	bin    string
	args   []string
	udp    string // client datagram address
	http   string // gateway address (idle except for scrapes and the HTTP workload)
	fed    string // backbone address; "" when standalone
	state  string // store path; "" without a store
	stderr string
	cmd    *exec.Cmd
	// exited is closed once the process has been reaped.
	exited chan struct{}
}

// procs tracks every live daemon so exit paths (normal return, SIGINT,
// panic) can kill whatever is still running.
var procs struct {
	mu   sync.Mutex
	live map[*daemon]bool
}

func (d *daemon) start() error {
	logf, err := os.OpenFile(d.stderr, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group: a terminal SIGINT reaches the harness alone, which
	// then kills the daemons itself, and kill() takes the whole group.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return err
	}
	d.cmd = cmd
	d.exited = make(chan struct{})
	go func(exited chan struct{}) {
		_ = cmd.Wait() // a daemon only ever ends by being killed or by failing to start; awaitUp reports the latter from its log
		close(exited)
	}(d.exited)
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = make(map[*daemon]bool)
	}
	procs.live[d] = true
	procs.mu.Unlock()
	return nil
}

// kill SIGKILLs the daemon's process group and reaps it. Safe to repeat.
func (d *daemon) kill() {
	procs.mu.Lock()
	live := procs.live[d]
	delete(procs.live, d)
	procs.mu.Unlock()
	if !live {
		return
	}
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-d.exited
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// killAll takes down every daemon still running.
func killAll() {
	procs.mu.Lock()
	var all []*daemon
	for d := range procs.live {
		all = append(all, d)
	}
	procs.mu.Unlock()
	for _, d := range all {
		d.kill()
	}
}

// cluster is the set of daemons one workload runs against.
type cluster struct {
	w       *workload
	daemons []*daemon
}

// newCluster configures (without starting) the workload's daemons in dir:
// ontology files, ports, flags. Daemons run with shipped defaults except
// what the workload names; each also gets an HTTP gateway, idle on the UDP
// workloads, so traced and untraced runs boot the same configuration.
func newCluster(w *workload, bin, dir string) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var ontologyArgs []string
	for i, doc := range w.ontologyDocs {
		path := filepath.Join(dir, fmt.Sprintf("ont%02d.xml", i))
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			return nil, err
		}
		ontologyArgs = append(ontologyArgs, "-ontology", path)
	}
	c := &cluster{w: w}
	for i := 0; i < w.spec.daemons; i++ {
		var ports [3]int
		for j := range ports {
			p, err := freePort()
			if err != nil {
				return nil, err
			}
			ports[j] = p
		}
		d := &daemon{
			bin:    bin,
			udp:    fmt.Sprintf("127.0.0.1:%d", ports[0]),
			http:   fmt.Sprintf("127.0.0.1:%d", ports[1]),
			stderr: filepath.Join(dir, fmt.Sprintf("sdpd-%d.log", i)),
		}
		d.args = append([]string{"-listen", d.udp, "-http", d.http}, ontologyArgs...)
		if w.spec.daemons > 1 {
			d.fed = fmt.Sprintf("127.0.0.1:%d", ports[2])
			d.args = append(d.args, "-federate", d.fed)
			for _, prev := range c.daemons {
				d.args = append(d.args, "-peer", prev.fed)
			}
		}
		if w.spec.durable {
			d.state = filepath.Join(dir, fmt.Sprintf("state-%d.bolt", i))
			d.args = append(d.args, "-state", d.state, "-store", "bolt", "-sync-every", "1",
				"-auth-secret", benchSecret)
		}
		c.daemons = append(c.daemons, d)
	}
	return c, nil
}

// dial opens a client connection to daemon i's front end, the one the
// workload drives.
func (c *cluster) dial(i int) (conn, error) {
	if c.w.spec.http {
		return dialHTTP(c.daemons[i].http)
	}
	return dialUDP(c.daemons[i].udp)
}

// pids lists the process IDs of the cluster's daemons.
func (c *cluster) pids() []int {
	var out []int
	for _, d := range c.daemons {
		out = append(out, d.pid())
	}
	return out
}

func (c *cluster) kill() {
	for _, d := range c.daemons {
		d.kill()
	}
}

// removeState deletes store files so the next cold boot starts empty.
func (c *cluster) removeState() error {
	for _, d := range c.daemons {
		if d.state == "" {
			continue
		}
		if err := os.Remove(d.state); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

const (
	bootDeadline = 60 * time.Second
	pollEvery    = 2 * time.Millisecond
)

// boot starts every daemon cold, preloads the directory and confirms it.
// The returned duration is setup_s: spawn of the first daemon until every
// advertisement is acknowledged and the full directory answers.
func (c *cluster) boot() (time.Duration, error) {
	start := time.Now()
	for _, d := range c.daemons {
		if err := d.start(); err != nil {
			return 0, err
		}
	}
	deadline := start.Add(bootDeadline)
	for i := range c.daemons {
		if err := c.awaitUp(i, deadline); err != nil {
			return 0, err
		}
	}
	if err := c.preload(); err != nil {
		return 0, err
	}
	if err := c.confirm(deadline); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// restart SIGKILLs daemon 0 and brings it back on the same state file.
// The returned duration is restart_s: kill until stats shows the full
// live count and a probe query returns its oracle hits.
func (c *cluster) restart() (time.Duration, error) {
	start := time.Now()
	d := c.daemons[0]
	d.kill()
	if err := d.start(); err != nil {
		return 0, err
	}
	deadline := start.Add(bootDeadline)
	if err := c.awaitUp(0, deadline); err != nil {
		return 0, err
	}
	if err := c.confirm(deadline); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// awaitUp polls daemon i's stats op until the front end answers. A daemon
// that exits instead (a bad flag, or its port taken between freePort's
// probe and its own bind) fails the boot at once, with the end of its log.
func (c *cluster) awaitUp(i int, deadline time.Time) error {
	d := c.daemons[i]
	var last error
	for time.Now().Before(deadline) {
		// The gateway binds on its own goroutine; the daemon is up when both
		// front ends answer.
		if _, err := c.stats(i); err != nil {
			last = err
		} else if g, err := net.DialTimeout("tcp", d.http, opTimeout); err != nil {
			last = err
		} else {
			g.Close()
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("daemon %d exited while starting: %s", i, logTail(d.stderr))
		case <-time.After(pollEvery):
		}
	}
	return fmt.Errorf("daemon %d never came up (see %s): %v", i, d.stderr, last)
}

// logTail returns the last few hundred bytes of a daemon's log.
func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	return strings.TrimSpace(string(b[max(0, len(b)-400):]))
}

// preload registers every stable service at its home daemon and variant 0
// of every churn service at daemon 0, one at a time over one connection
// per daemon, so the insertion order (and with it the DAG) is the same on
// every boot.
func (c *cluster) preload() error {
	for i := range c.daemons {
		cn, err := c.dial(i)
		if err != nil {
			return err
		}
		load := func(doc []byte) error {
			reply, err := cn.do(c.w.encodePublish(doc), nil)
			if err != nil {
				return err
			}
			return checkPublishReply(reply)
		}
		for _, s := range c.w.stable {
			if s.home != i {
				continue
			}
			if err := load(s.doc); err != nil {
				cn.close()
				return fmt.Errorf("preload %s on daemon %d: %w", s.name, i, err)
			}
		}
		if i == 0 {
			for _, cs := range c.w.churn {
				if err := load(cs.variants[0]); err != nil {
					cn.close()
					return fmt.Errorf("preload %s: %w", cs.name, err)
				}
			}
		}
		cn.close()
	}
	return nil
}

// expectedCapabilities is the advertisement count daemon i holds when the
// directory is complete.
func (c *cluster) expectedCapabilities(i int) int {
	n := 0
	for _, s := range c.w.stable {
		if s.home == i {
			n++
		}
	}
	if i == 0 {
		n += len(c.w.churn)
	}
	return n
}

// confirm checks the whole directory is in place: every daemon's stats
// shows its advertisement count and all ontologies, a federated daemon 0
// sees a populated summary from every peer, and one probe query per home
// daemon — sent where clients send — returns its oracle hits.
func (c *cluster) confirm(deadline time.Time) error {
	for i := range c.daemons {
		st, err := c.stats(i)
		if err != nil {
			return err
		}
		if st.Capabilities != c.expectedCapabilities(i) || len(st.Ontologies) != c.w.spec.ontologies {
			return fmt.Errorf("daemon %d holds %d capabilities over %d ontologies, want %d over %d",
				i, st.Capabilities, len(st.Ontologies), c.expectedCapabilities(i), c.w.spec.ontologies)
		}
	}
	if len(c.daemons) > 1 {
		if err := c.awaitSummaries(deadline); err != nil {
			return err
		}
	}
	cn, err := c.dial(0)
	if err != nil {
		return err
	}
	defer cn.close()
	probed := make(map[int]bool)
	for ri, r := range c.w.requests {
		if probed[r.home] {
			continue
		}
		probed[r.home] = true
		reply, err := cn.do(c.w.encodeQuery(r.doc), nil)
		if err != nil {
			return fmt.Errorf("probe query for home %d: %w", r.home, err)
		}
		if _, err := c.w.checkQueryReply(ri, reply); err != nil {
			return fmt.Errorf("probe query for home %d: %w", r.home, err)
		}
	}
	return nil
}

// awaitSummaries polls daemon 0's peers op until every other daemon shows
// a Bloom summary carrying its full advertisement count.
func (c *cluster) awaitSummaries(deadline time.Time) error {
	for {
		peers, err := c.peers(0)
		if err != nil {
			return err
		}
		ok := 0
		for i := 1; i < len(c.daemons); i++ {
			for _, p := range peers {
				if p.Addr == c.daemons[i].fed && p.HasSummary && p.Entries == c.expectedCapabilities(i) {
					ok++
				}
			}
		}
		if ok == len(c.daemons)-1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon 0 never saw full summaries from its peers: %+v", peers)
		}
		time.Sleep(pollEvery)
	}
}
