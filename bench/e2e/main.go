// Command e2e is the repository's end-to-end benchmark: it builds
// cmd/sdpd from the working tree, boots real daemon processes, drives them
// over their sockets from two closed-loop connections, checks every reply
// against a linear-scan oracle, and prints every metric by name and unit.
// README.md beside this file is the manual: metrics, workloads, protocol,
// noise notes and the seed baseline.
//
// Usage (from the repository root):
//
//	go run ./bench/e2e                         # all workloads, end-to-end metrics
//	go run ./bench/e2e -workload fed-lookup    # one workload
//	go run ./bench/e2e -trace 1                # traced run: per-layer metrics + span files
//	go run ./bench/e2e -aa 5                   # A/A: two alternating sets of five runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	workloadFlag := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "traffic seed: which requests exist, which one each op sends, where each publish falls (the directory corpus is fixed)")
	seconds := flag.Int("seconds", defaultSeconds, "measured window: buys whole laps at each workload's frozen lap length, never fewer than 6")
	trace := flag.Int("trace", 0, "1 runs the traced configuration and reports the per-layer metrics as well")
	aa := flag.Int("aa", 0, "A/A mode: run two alternating sets of this many invocations and compare them")
	keep := flag.Bool("keep", false, "keep the run directory (daemon logs, state files)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}

	run := specs
	if *workloadFlag != "" {
		sp, ok := specByName(*workloadFlag)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
		}
		run = []spec{sp}
	}

	env, err := prepare(*keep)
	if err != nil {
		fatal(err)
	}
	code := 0
	func() {
		// Daemons die with the harness on every path out: return, panic
		// (the deferred kill runs before the panic propagates), SIGINT.
		defer env.cleanup()
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			env.cleanup()
			os.Exit(130)
		}()
		if *aa > 0 {
			code = runAA(env, run, *seed, *seconds, *aa)
		} else {
			code = runOnce(env, run, *seed, *seconds, *trace == 1)
		}
	}()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench/e2e: %v\n", err)
	killAll()
	os.Exit(2)
}

// prepare finds the repository, makes the run directory inside it and
// builds sdpd once.
func prepare(keep bool) (*environment, error) {
	root, err := findRepoRoot()
	if err != nil {
		return nil, err
	}
	// Everything the benchmark writes stays under .bench_build in the
	// checkout: binaries, daemon logs, state files, span files.
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "bin"), 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	env := &environment{repoRoot: root, runDir: runDir, outDir: build, keep: keep}
	env.bin, err = buildDaemon(root, filepath.Join(build, "bin"))
	if err != nil {
		env.cleanup()
		return nil, err
	}
	env.describe()
	return env, nil
}

func (env *environment) cleanup() {
	killAll()
	if !env.keep {
		os.RemoveAll(env.runDir)
	}
}

// findRepoRoot walks up from the working directory to the module root.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "sdpd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (go.mod with cmd/sdpd) above the working directory")
		}
		dir = parent
	}
}

// describe prints the measurement environment once per invocation.
func (env *environment) describe() {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = env.repoRoot
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("env nproc=%d go=%s kernel=%s state_fs=%s commit=%s conns=%d\n",
		runtime.NumCPU(), runtime.Version(), kernel, fsTypeOf(env.runDir), commit, numConns)
}

// runOnce runs each workload and prints its metrics. Exit status 1 means
// a failed op, an unusable metric or a metric the run should have produced
// and did not.
func runOnce(env *environment, run []spec, seed int64, seconds int, traced bool) int {
	code := 0
	for _, sp := range run {
		res, err := runWorkload(env, sp, seed, seconds, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench/e2e: %v\n", err)
			return 2
		}
		res.print(traced)
		if !res.correct() {
			code = 1
		}
		for _, name := range contractMetrics(traced) {
			if _, ok := res.metrics[name]; !ok {
				fmt.Fprintf(os.Stderr, "bench/e2e: %s: run produced no %s\n", sp.name, name)
				code = 1
			}
		}
	}
	return code
}

// contractMetrics names what the benchmark contract's JSON line carries:
// the gated end-to-end metrics of an untraced run, every per-layer metric
// of a traced one.
func contractMetrics(traced bool) []string {
	var out []string
	if traced {
		for _, l := range perLayer {
			out = append(out, l.name)
		}
		return out
	}
	for _, m := range endToEnd {
		if m.layer == "" {
			out = append(out, m.name)
		}
	}
	return out
}

// print writes the human-readable table, then the one-line JSON object
// the benchmark contract reads off the last line of standard output.
func (r *result) print(traced bool) {
	fmt.Printf("workload %s seed=%d laps=%d ops_per_lap=%d\n", r.workload, r.seed, r.laps, r.lapOps)
	for _, name := range r.order {
		m := r.metrics[name]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", name, m.v, m.unit)
		if m.how != "" {
			line += "  " + m.how
		}
		if len(m.samples) > 0 {
			line += fmt.Sprintf(": median %.4f min %.4f max %.4f", median(m.samples), minOf(m.samples), maxOf(m.samples))
		}
		fmt.Println(line)
	}
	fmt.Printf("  ops_attempted %d ops_failed %d\n", r.attempted, r.failed)
	for _, e := range r.errors {
		fmt.Printf("  failed: %s\n", e)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]jsonMetric)}
	for _, name := range contractMetrics(traced) {
		if m, ok := r.metrics[name]; ok {
			out.Metrics[name] = jsonMetric{m.v, m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		// A NaN metric cannot be marshalled; correct() already flagged it.
		fmt.Printf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`+"\n", r.attempted, r.failed)
		return
	}
	fmt.Println(string(line))
}
