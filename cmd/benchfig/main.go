// Command benchfig regenerates the data series behind every measured
// figure of the paper's evaluation (Figures 2, 7, 8, 9 and 10), printing
// the same rows/series the paper plots. Absolute numbers differ from the
// paper's 2006 testbed; EXPERIMENTS.md records the shape comparison.
//
// Usage:
//
//	benchfig -fig 2          # one figure
//	benchfig -fig all        # everything
//	benchfig -fig 9 -max 200 -step 20 -reps 50
//	benchfig -fig 9 -benchjson   # also write BENCH_fig9.json
//
// With -benchjson, figures 8, 9 and 10 additionally emit BENCH_fig8.json,
// BENCH_fig9.json and BENCH_fig10.json in the working directory: one array
// of points, each carrying the directory size, series name (sparse /
// dense for figure 8, optimized / non-optimized for figure 9, ariadne /
// s-ariadne for figure 10), ops/sec, and p50/p95/p99/p999 latency in
// nanoseconds over the per-point repetitions; figure 8's points also
// carry the match operations one insert needed.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sariadne/internal/ariadne"
	"sariadne/internal/codes"
	"sariadne/internal/discovery"
	"sariadne/internal/gen"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/reasoner"
	"sariadne/internal/registry"
	"sariadne/internal/telemetry"
	"sariadne/internal/wsdl"
)

func main() {
	log.SetFlags(0)
	fig := flag.String("fig", "all", "figure to regenerate: 2, 7, 8, 9, 10, traffic, bloom or all")
	maxServices := flag.Int("max", 100, "largest directory size for figures 7-10 (figure 8 goes on to 1000 and 2000)")
	step := flag.Int("step", 20, "directory size step for figures 7-10")
	reps := flag.Int("reps", 25, "repetitions per measurement point")
	traceSample := flag.Int("trace-sample", 0,
		"trace every Nth query in -fig traffic (0 = discovery default of 64, negative disables; for overhead A/B runs)")
	benchJSON := flag.Bool("benchjson", false,
		"also write BENCH_fig8.json / BENCH_fig9.json / BENCH_fig10.json (ops/sec + p50/p95/p99/p999 per size and series) for the figures that ran")
	soakPipeline := flag.Bool("soak-pipeline", false,
		"run the full soak-horizon pipeline (runtime collector sampler + drift watchdog) during the figures, for overhead A/B runs")
	flag.Parse()
	trafficTraceSample = *traceSample

	if *soakPipeline {
		// The same cadences sdpd's soak defaults use, so the watchdog
		// sweeps real windows; the delta against a plain run is the
		// pipeline's whole cost on the measured paths.
		const sampleEvery = 500 * time.Millisecond
		hist := telemetry.NewHistory(720)
		defer telemetry.StartSampler(telemetry.Default(), sampleEvery, hist,
			telemetry.SamplerConfig{Collect: telemetry.SampleRuntime}).Stop()
		wd := telemetry.NewWatchdog(telemetry.WatchdogConfig{
			History:   hist,
			Detectors: telemetry.StandardDetectors(telemetry.Thresholds{}),
			Interval:  time.Second,
		}, sampleEvery)
		wd.Start()
		defer wd.Stop()
	}

	run := func(name string, f func(int, int, int)) {
		fmt.Printf("==== Figure %s ====\n", name)
		f(*maxServices, *step, *reps)
		fmt.Println()
	}

	switch *fig {
	case "2":
		run("2", fig2)
	case "7":
		run("7", fig7)
	case "8":
		run("8", fig8)
	case "9":
		run("9", fig9)
	case "10":
		run("10", fig10)
	case "traffic":
		run("traffic (protocol-level, beyond the paper)", traffic)
	case "bloom":
		run("bloom (summary parameter sweep, Section 4)", bloomSweep)
	case "all":
		run("2", fig2)
		run("7", fig7)
		run("8", fig8)
		run("9", fig9)
		run("10", fig10)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if *benchJSON {
		for _, out := range []struct {
			path   string
			points []benchPoint
		}{{"BENCH_fig8.json", fig8Points}, {"BENCH_fig9.json", fig9Points}, {"BENCH_fig10.json", fig10Points}} {
			if out.points == nil {
				continue // the figure did not run
			}
			if err := writeBenchJSON(out.path, out.points); err != nil {
				log.Fatal(err)
			}
		}
	}
	// End-of-run telemetry snapshot: how much parse/classify/match work
	// the figures above actually exercised.
	if err := telemetry.Default().WriteSummary(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// timeIt returns the average duration of f over reps runs.
func timeIt(reps int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start) / time.Duration(reps)
}

func workload(services int) (*gen.Workload, *codes.Registry) {
	w := gen.MustNewWorkload(gen.WorkloadConfig{
		Ontologies:           22,
		Services:             services,
		InputsPerCapability:  5,
		OutputsPerCapability: 3,
		Seed:                 42,
	})
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		log.Fatal(err)
	}
	return w, reg
}

// The "parse" of figures 2, 7 and 8 is the paper's: an off-the-shelf XML
// toolkit reading the description, which here is encoding/xml behind
// profile.UnmarshalGeneric. The shares the paper reports ("parsing
// dominates") are shares of that. What the daemon pays for the same
// documents since it reads plain ones with its own scanner
// (profile.Unmarshal) stands in a column of its own and enters no total.

// parseDocs times one pass of a decoder over the documents.
func parseDocs(reps int, unmarshal func([]byte) (*profile.Service, error), docs ...[]byte) time.Duration {
	return timeIt(reps, func() {
		for _, doc := range docs {
			if _, err := unmarshal(doc); err != nil {
				log.Fatal(err)
			}
		}
	})
}

// fig2 prints the per-reasoner phase decomposition of one capability
// match: parse / load+classify / match / total, plus the share of
// load+classify (the paper reports 76–78%) and the encoded matcher's
// time for contrast.
func fig2(_, _, reps int) {
	ontDoc, err := ontology.Marshal(gen.Fig2Ontology())
	if err != nil {
		log.Fatal(err)
	}
	provided, requested := gen.Fig2Capabilities()
	providedDoc, err := profile.Marshal(&profile.Service{Name: "p", Provided: []*profile.Capability{provided}})
	if err != nil {
		log.Fatal(err)
	}
	requestedDoc, err := profile.Marshal(&profile.Service{Name: "r", Required: []*profile.Capability{requested}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %12s %14s %12s %12s %8s\n", "reasoner", "parse", "load+classify", "match", "total", "l+c %")
	for _, prof := range reasoner.Profiles() {
		parse := parseDocs(reps, profile.UnmarshalGeneric, providedDoc, requestedDoc)
		loadClassify := timeIt(reps, func() {
			r, _ := reasoner.New(prof)
			if err := r.Load(bytes.NewReader(ontDoc)); err != nil {
				log.Fatal(err)
			}
			if _, err := r.Classify(); err != nil {
				log.Fatal(err)
			}
		})
		r, _ := reasoner.New(prof)
		if err := r.Load(bytes.NewReader(ontDoc)); err != nil {
			log.Fatal(err)
		}
		h, err := r.Classify()
		if err != nil {
			log.Fatal(err)
		}
		hm := match.NewHierarchyMatcher()
		hm.Add(gen.Fig2Ontology().URI, h)
		matchTime := timeIt(reps, func() {
			if !match.Match(hm, provided, requested) {
				log.Fatal("pair must match")
			}
		})
		total := parse + loadClassify + matchTime
		fmt.Printf("%-10s %12s %14s %12s %12s %7.1f%%\n",
			prof, parse, loadClassify, matchTime, total,
			100*float64(loadClassify)/float64(total))
	}

	reg := codes.NewRegistry()
	reg.Register(codes.MustEncode(ontology.MustClassify(gen.Fig2Ontology()), codes.DefaultParams))
	cm := match.NewCodeMatcher(reg)
	encoded := timeIt(reps, func() {
		if !match.Match(cm, provided, requested) {
			log.Fatal("pair must match")
		}
	})
	fmt.Printf("%-10s %12s %14s %12s %12s   (offline encoding, paper Section 3.2)\n",
		"encoded", "-", "-", encoded, encoded)
	scanned := parseDocs(reps, profile.Unmarshal, providedDoc, requestedDoc)
	fmt.Printf("%-10s %12s   (the same two documents through the daemon's decoder)\n", "sdpd", scanned)
}

// fig7 prints the time to populate an empty directory: parse, graph
// creation, total — per directory size.
func fig7(maxServices, step, reps int) {
	fmt.Printf("%-10s %12s %14s %12s %9s %14s\n", "services", "parse", "create graphs", "total", "parse %", "parse (sdpd)")
	for n := step; n <= maxServices; n += step {
		w, reg := workload(n)
		parse := parseDocs(reps, profile.UnmarshalGeneric, w.ServiceDocs...)
		scanned := parseDocs(reps, profile.Unmarshal, w.ServiceDocs...)
		create := timeIt(reps, func() {
			dir := registry.NewDirectory(match.NewCodeMatcher(reg))
			for _, svc := range w.Services {
				if err := dir.Register(svc); err != nil {
					log.Fatal(err)
				}
			}
		})
		fmt.Printf("%-10d %12s %14s %12s %8.0f%% %14s\n", n, parse, create, parse+create,
			100*float64(parse)/float64(parse+create), scanned)
	}
}

// denseWorkload is the live benchmark's dense directory shape: two
// ontologies of twelve concepts whatever the number of services, so that
// most advertisements are related and the directory is a few large graphs
// (workload() above is the sparse shape: graphs of a vertex or two).
func denseWorkload(services int) (*gen.Workload, *codes.Registry) {
	w := gen.MustNewWorkload(gen.WorkloadConfig{
		Ontologies:         2,
		ClassesPerOntology: 12,
		Services:           services,
		Seed:               42,
	})
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		log.Fatal(err)
	}
	return w, reg
}

// fig8 prints the time to publish one new advertisement into an existing
// directory: parse, insert, total, and the match operations the insert
// needed — per directory size, once for each directory shape. After the
// stepped series it goes on to 1000 and 2000 services, an order of
// magnitude past the paper's largest directory: "insert is nearly
// constant" is a claim about growth, and 100 services cannot tell
// constant from slowly linear. The dense shape is where it is hardest to
// keep: there an insert lands inside a graph that grows with the
// directory.
func fig8(maxServices, step, reps int) {
	var sizes []int
	for n := step; n <= maxServices; n += step {
		sizes = append(sizes, n)
	}
	for _, n := range []int{1000, 2000} {
		if n > maxServices {
			sizes = append(sizes, n)
		}
	}
	for _, shape := range []struct {
		name     string
		workload func(int) (*gen.Workload, *codes.Registry)
	}{{"sparse", workload}, {"dense", denseWorkload}} {
		fmt.Printf("%s directory\n%-10s %12s %12s %12s %16s %14s\n", shape.name, "services", "parse", "insert", "total", "match ops/insert", "parse (sdpd)")
		for _, n := range sizes {
			// The advertisements published are the reps that follow the
			// first n of the same workload: each is classified once, and
			// the figures are means over different advertisements, related
			// and unrelated to what the directory holds.
			w, reg := shape.workload(n + reps)
			// One pass over the reps documents is reps parses: a mean per
			// document, like the insert's.
			parse := parseDocs(1, profile.UnmarshalGeneric, w.ServiceDocs[n:n+reps]...) / time.Duration(reps)
			scanned := parseDocs(1, profile.Unmarshal, w.ServiceDocs[n:n+reps]...) / time.Duration(reps)
			i := n
			dir := registry.NewDirectory(match.NewCodeMatcher(reg))
			for _, svc := range w.Services[:n] {
				if err := dir.Register(svc); err != nil {
					log.Fatal(err)
				}
			}
			opsBefore := dir.MatchOps()
			samples := sampleIt(reps, func() {
				if err := dir.Register(w.Services[i]); err != nil {
					log.Fatal(err)
				}
				i++
			})
			pt := point(n, shape.name, samples)
			pt.MatchOpsPerOp = float64(dir.MatchOps()-opsBefore) / float64(reps)
			fig8Points = append(fig8Points, pt)
			insert := mean(samples)
			fmt.Printf("%-10d %12s %12s %12s %16.1f %14s\n", n, parse, insert, parse+insert, pt.MatchOpsPerOp, scanned)
		}
	}
}

// fig9 prints the time to resolve a request in the classified directory
// vs unclassified linear matching (request parse excluded, as in the
// paper).
func fig9(maxServices, step, reps int) {
	fmt.Printf("%-10s %14s %16s %10s %10s %10s\n",
		"services", "optimized", "non-optimized", "overhead", "ops(opt)", "ops(lin)")
	for n := step; n <= maxServices; n += step {
		w, reg := workload(n)
		m := match.NewCodeMatcher(reg)
		// Average over several distinct requests to smooth the variance a
		// single randomly specialized request would introduce.
		reqs := make([]*profile.Capability, 0, 8)
		for i := 0; i < 8; i++ {
			reqs = append(reqs, w.Request((n/8)*i%n, 1))
		}

		dag := registry.NewDirectory(m)
		flat := registry.NewLinearDirectory(m)
		for _, svc := range w.Services {
			if err := dag.Register(svc); err != nil {
				log.Fatal(err)
			}
			if err := flat.Register(svc); err != nil {
				log.Fatal(err)
			}
		}
		i := 0
		optSamples := sampleIt(reps, func() {
			if res := dag.Query(reqs[i%len(reqs)]); len(res) == 0 {
				log.Fatal("request must match")
			}
			i++
		})
		opt := mean(optSamples)
		i = 0
		opsBefore := dag.MatchOps()
		for j := 0; j < len(reqs); j++ {
			dag.Query(reqs[j])
		}
		opsOpt := float64(dag.MatchOps()-opsBefore) / float64(len(reqs))

		linSamples := sampleIt(reps, func() {
			if res := flat.Query(reqs[i%len(reqs)]); len(res) == 0 {
				log.Fatal("request must match")
			}
			i++
		})
		lin := mean(linSamples)
		opsBefore = flat.MatchOps()
		for j := 0; j < len(reqs); j++ {
			flat.Query(reqs[j])
		}
		opsLin := float64(flat.MatchOps()-opsBefore) / float64(len(reqs))

		// The two series pay differently for a match operation (the
		// classified directory compares codes, the linear scan resolves
		// names), so the points carry the counts as well: what the
		// classification saves reads off them whatever an operation costs.
		optPt, linPt := point(n, "optimized", optSamples), point(n, "non-optimized", linSamples)
		optPt.MatchOpsPerOp, linPt.MatchOpsPerOp = opsOpt, opsLin
		fig9Points = append(fig9Points, optPt, linPt)
		fmt.Printf("%-10d %14s %16s %9.0f%% %10.1f %10.1f\n", n, opt, lin,
			100*(float64(lin)/float64(opt)-1), opsOpt, opsLin)
	}
}

// fig10 prints the directory response time of the syntactic Ariadne
// baseline vs S-Ariadne on the same services (document in, answer out).
// Each side goes through its backend's Query as a directory would run it,
// so the two no longer parse alike: Ariadne reads its WSDL request with
// encoding/xml, S-Ariadne its plain Amigo-S request with the scanner. The
// share of each total that is the request's parse is printed beside it,
// so that how much of the gap is decoder and how much is matching can be
// read off.
func fig10(maxServices, step, reps int) {
	fmt.Printf("%-10s %14s %9s %14s %9s\n", "services", "ariadne", "parse %", "s-ariadne", "parse %")
	for n := step; n <= maxServices; n += step {
		w, reg := workload(n)

		syntactic := ariadne.NewBackend()
		for _, def := range w.Definitions {
			doc, err := wsdl.Marshal(def)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := syntactic.Register(doc); err != nil {
				log.Fatal(err)
			}
		}
		wsdlReq, err := wsdl.Marshal(w.WSDLRequest(n / 2))
		if err != nil {
			log.Fatal(err)
		}

		semantic := discovery.NewSemanticBackend(reg)
		for _, doc := range w.ServiceDocs {
			if _, err := semantic.Register(doc); err != nil {
				log.Fatal(err)
			}
		}
		semReq, err := profile.Marshal(&profile.Service{
			Name:     "request",
			Required: []*profile.Capability{w.Request(n/2, 1)},
		})
		if err != nil {
			log.Fatal(err)
		}

		ariadneSamples := sampleIt(reps, func() {
			hits, _, _, err := syntactic.Resolve(wsdlReq)
			if err != nil || len(hits) == 0 {
				log.Fatalf("ariadne query: hits=%v err=%v", hits, err)
			}
		})
		sariadneSamples := sampleIt(reps, func() {
			hits, err := semantic.Query(semReq)
			if err != nil || len(hits) == 0 {
				log.Fatalf("s-ariadne query: hits=%v err=%v", hits, err)
			}
		})
		fig10Points = append(fig10Points,
			point(n, "ariadne", ariadneSamples),
			point(n, "s-ariadne", sariadneSamples))
		wsdlParse := timeIt(reps, func() {
			if _, err := wsdl.Unmarshal(wsdlReq); err != nil {
				log.Fatal(err)
			}
		})
		semParse := parseDocs(reps, profile.Unmarshal, semReq)
		ariadneMean, sariadneMean := mean(ariadneSamples), mean(sariadneSamples)
		fmt.Printf("%-10d %14s %8.1f%% %14s %8.1f%%\n", n,
			ariadneMean, 100*float64(wsdlParse)/float64(ariadneMean),
			sariadneMean, 100*float64(semParse)/float64(sariadneMean))
	}
}
