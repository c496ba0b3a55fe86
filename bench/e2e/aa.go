package main

import (
	"fmt"
	"math"
	"os"
)

// countMetrics are the per-layer metrics that count work rather than time
// it. Two runs of the same code must agree on them within countTolerance,
// which is what lets a later change cite one as evidence.
var countMetrics = []string{
	"match.ops_per_query",
	"registry.root_probes_per_query",
	"profile.parses_per_op",
	"store.syncs_per_publish",
	"store.bytes_per_publish",
	"discovery.forwards_per_query",
	"discovery.pruned_per_query",
	"sdpd.request_bytes_per_query",
	"sdpd.reply_bytes_per_query",
	"sdpd.hits_per_query",
}

const countTolerance = 0.01

// runAA measures the benchmark against itself: two sets of n untraced
// invocations of the same code, alternating which set goes first, then
// one traced invocation per set for the count metrics. For every workload
// and end-to-end metric it prints both medians, their relative
// difference, each set's quartile spread, the bound and whether
// BENCHMARK.json gates the metric. The verdict is on the medians: FAIL
// means two sets of the same code disagree by more than the bound. The
// steadiness mark is the benchmark contract's: a metric is steady enough to
// gate when its spread stays under a third of its bound. Only a gated
// metric's FAIL fails the run; the ungated rows are the evidence for their
// demotion.
func runAA(env *environment, run []spec, seed int64, seconds, n int) int {
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for s := range sets {
		sets[s] = make(map[key][]float64)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < 2; j++ {
			side := (i + j) % 2
			for _, sp := range run {
				res, err := runWorkload(env, sp, seed, seconds, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench/e2e: %v\n", err)
					return 2
				}
				if !res.correct() {
					res.print(false)
					return 1
				}
				for name, m := range res.metrics {
					sets[side][key{sp.name, name}] = append(sets[side][key{sp.name, name}], m.v)
				}
				fmt.Printf("aa invocation %d/%d set %c %s done\n", i+1, n, 'A'+side, sp.name)
			}
		}
	}
	code := 0
	fmt.Printf("\nA/A seed=%d invocations_per_set=%d seconds=%d\n", seed, n, seconds)
	fmt.Printf("%-16s %-22s %12s %12s %8s %9s %9s %7s %-5s  %s\n",
		"workload", "metric", "median_A", "median_B", "diff_%", "spread_A%", "spread_B%", "bound_%", "gated", "verdict")
	for _, sp := range run {
		for _, m := range endToEnd {
			a, b := sets[0][key{sp.name, m.name}], sets[1][key{sp.name, m.name}]
			if len(a) == 0 {
				continue // restart_s off the durable workload
			}
			diff := (median(b) - median(a)) / median(a)
			sa, sb := quartileSpread(a), quartileSpread(b)
			gated := "yes"
			if m.layer != "" {
				gated = "no"
			}
			verdict := "PASS"
			if math.Abs(diff) > m.bound {
				verdict = "FAIL"
				if m.layer == "" {
					code = 1
				}
			}
			if max(sa, sb) > m.bound/3 {
				verdict += " unsteady"
			}
			fmt.Printf("%-16s %-22s %12.3f %12.3f %+8.2f %9.2f %9.2f %7.1f %-5s  %s\n",
				sp.name, m.name, median(a), median(b), 100*diff, 100*sa, 100*sb, 100*m.bound, gated, verdict)
		}
	}

	fmt.Printf("\ncount metrics, one traced invocation per set (tolerance %.0f%%)\n", 100*countTolerance)
	fmt.Printf("%-16s %-34s %14s %14s %8s  %s\n", "workload", "metric", "A", "B", "diff_%", "verdict")
	for _, sp := range run {
		var traced [2]*result
		for s := range traced {
			res, err := runWorkload(env, sp, seed, seconds, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench/e2e: %v\n", err)
				return 2
			}
			traced[s] = res
		}
		for _, name := range countMetrics {
			a, b := traced[0].metrics[name].v, traced[1].metrics[name].v
			diff := 0.0
			if a != 0 {
				diff = (b - a) / a
			} else if b != 0 {
				diff = math.Inf(1)
			}
			verdict := "PASS"
			if math.Abs(diff) > countTolerance {
				verdict = "FAIL"
				code = 1
			}
			fmt.Printf("%-16s %-34s %14.4f %14.4f %+8.3f  %s\n", sp.name, name, a, b, 100*diff, verdict)
		}
	}
	return code
}
