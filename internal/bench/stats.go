// Package bench is the experiment harness: closed-loop clients, latency
// and throughput measurement, and one runner per table/figure of the
// paper's evaluation (Section V). The heron-bench command and the
// repository's testing.B benchmarks are thin wrappers over this package.
package bench

import (
	"fmt"
	"math"
	"sort"

	"heron/internal/sim"
)

// LatencyRecorder accumulates latency samples in virtual time.
type LatencyRecorder struct {
	samples []sim.Duration
	sorted  bool
}

// Add records one sample.
func (r *LatencyRecorder) Add(d sim.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Samples returns the recorded samples (unsorted insertion order is not
// guaranteed once a percentile has been computed).
func (r *LatencyRecorder) Samples() []sim.Duration { return r.samples }

// Mean returns the average latency.
func (r *LatencyRecorder) Mean() sim.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum / sim.Duration(len(r.samples))
}

func (r *LatencyRecorder) sortSamples() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) by the
// nearest-rank rule: the smallest sample such that at least p percent of
// the samples are <= it, i.e. index ceil(p/100*n)-1. (A truncating index
// would, e.g., report the 50th percentile of 10 samples as samples[4]
// with only 40% of the mass below it.) The rank is computed in integers,
// with p read to a millionth of a percent, as CDF computes its own: in
// floats, 99.9/100*1000 is 999.0000000000001 and ceil takes one rank high.
func (r *LatencyRecorder) Percentile(p float64) sim.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sortSamples()
	const scale = 100 * 1_000_000
	n := len(r.samples)
	k := int(math.Round(p * 1_000_000))
	idx := (k*n+scale-1)/scale - 1
	return r.samples[max(0, min(idx, n-1))]
}

// Max returns the largest sample.
func (r *LatencyRecorder) Max() sim.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sortSamples()
	return r.samples[len(r.samples)-1]
}

// Stddev returns the standard deviation.
func (r *LatencyRecorder) Stddev() sim.Duration {
	n := len(r.samples)
	if n < 2 {
		return 0
	}
	mean := float64(r.Mean())
	var ss float64
	for _, s := range r.samples {
		d := float64(s) - mean
		ss += d * d
	}
	return sim.Duration(math.Sqrt(ss / float64(n)))
}

// CDF returns (latency, cumulative fraction) points at the given
// resolution, for the paper's CDF plots. Point i/points is the
// nearest-rank sample, index ceil(i*n/points)-1, computed in integers so
// no rank rounds down through a float product.
func (r *LatencyRecorder) CDF(points int) []CDFPoint {
	if len(r.samples) == 0 || points <= 0 {
		return nil
	}
	r.sortSamples()
	n := len(r.samples)
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		idx := (i*n+points-1)/points - 1
		out = append(out, CDFPoint{Latency: r.samples[idx], Fraction: float64(i) / float64(points)})
	}
	return out
}

// CDFPoint is one point of a latency CDF.
type CDFPoint struct {
	Latency  sim.Duration
	Fraction float64
}

// fmtDur renders a virtual duration compactly in microseconds or
// milliseconds.
func fmtDur(d sim.Duration) string {
	switch {
	case d < sim.Millisecond:
		return fmt.Sprintf("%.1fus", float64(d)/float64(sim.Microsecond))
	case d < sim.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(sim.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(d)/float64(sim.Second))
	}
}

// Throughput computes requests per second over a virtual window.
func Throughput(completed int, window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(completed) / (float64(window) / float64(sim.Second))
}
