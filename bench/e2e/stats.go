package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is left untouched.
// An empty sample has no percentile: NaN, which the reporting layer
// refuses to print as a metric.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// goodQuartile is the across-laps estimator of a metric that is only read
// once per lap: the quartile on the metric's good side — Q1 where lower is
// better, Q3 where higher is. Laps do identical work, so they differ only
// by what else the host was doing, and on a shared host that only ever
// slows a lap.
func goodQuartile(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return percentile(xs, 0.75)
	}
	return percentile(xs, 0.25)
}

// The undisturbed-slice estimator. The reference host runs at one of two
// speeds, flipping in bursts from a few hundred milliseconds to minutes
// long, and the share of a run spent at each varies from run to run; a
// mean, a median or a fixed quantile over the run reads that share. So
// the run is cut into slices, each scored by its median query round trip;
// the slices within quietBand of the refRank-th fastest are taken as the
// ones the host left alone, and a metric is the median of its readings on
// those slices. A run that never saw the fast state reads the slow one:
// no estimator can know better (README, noise notes).
const (
	// refRank makes the third fastest slice the reference, so that one or
	// two freak slices do not set the level.
	refRank = 3
	// quietBand is how far above the reference a slice's score may sit and
	// still count as undisturbed. The two host states differ by 30-70%.
	quietBand = 0.12
	// minSliceQueries keeps slices with too few queries for a median (a
	// slice that waited out a timeout) from being scored at all.
	minSliceQueries = 10
)

// undisturbed picks, from all slices of a run, the ones the host left
// alone.
func undisturbed(sl []slice) []slice {
	type scored struct {
		s   slice
		q50 float64
	}
	var sc []scored
	for _, s := range sl {
		if len(s.query) >= minSliceQueries {
			sc = append(sc, scored{s, percentile(s.query, 0.5)})
		}
	}
	if len(sc) == 0 {
		return nil
	}
	sort.Slice(sc, func(i, j int) bool { return sc[i].q50 < sc[j].q50 })
	limit := sc[min(refRank, len(sc))-1].q50 * (1 + quietBand)
	var out []slice
	for _, c := range sc {
		if c.q50 <= limit {
			out = append(out, c.s)
		}
	}
	return out
}

// readings collects one sliced metric over slices, leaving out the slices
// that cannot read it (no publish completed in them).
func readings(sl []slice, metric string) []float64 {
	var out []float64
	for i := range sl {
		if v := sl[i].value(metric); !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// quartileSpread is (Q3-Q1)/median of xs, as Python's
// statistics.quantiles(xs, n=4) draws the quartiles (exclusive method):
// the steadiness figure the A/A table reports and the benchmark contract
// holds against each metric's bound.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		lo := int(math.Floor(pos))
		lo = max(1, min(lo, len(s)-1))
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	return (q(3) - q(1)) / median(s)
}
