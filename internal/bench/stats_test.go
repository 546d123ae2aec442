package bench

import (
	"slices"
	"testing"

	"heron/internal/sim"
)

// TestPercentileNearestRank pins the nearest-rank rule:
// index = ceil(p/100*n) - 1 over the sorted samples, exact at ranks
// where p/100*n is an integer but its float product is not.
func TestPercentileNearestRank(t *testing.T) {
	tests := []struct {
		name    string
		samples []sim.Duration
		p       float64
		want    sim.Duration
	}{
		{"p50 of 10 is the 5th sample", seq(10), 50, 5},
		{"p90 of 10 is the 9th sample", seq(10), 90, 9},
		{"p99 of 10 rounds up to the 10th", seq(10), 99, 10},
		{"p100 of 10 is the max", seq(10), 100, 10},
		{"p1 of 10 rounds up to the 1st", seq(10), 1, 1},
		{"p50 of 1 is the only sample", seq(1), 50, 1},
		{"p100 of 1 is the only sample", seq(1), 100, 1},
		{"p50 of 2 is the lower sample", seq(2), 50, 1},
		{"p51 of 2 is the upper sample", seq(2), 51, 2},
		{"p50 of 100 is the 50th", seq(100), 50, 50},
		{"p95 of 100 is the 95th", seq(100), 95, 95},
		{"p99 of 100 is the 99th", seq(100), 99, 99},
		{"p99 of 200 is the 198th", seq(200), 99, 198},
		{"near-zero percentile is the min", seq(100), 0.0001, 1},
		{"p99.9 of 1000 is the 999th", seq(1000), 99.9, 999},
		{"p99.9 of 2000 is the 1998th", seq(2000), 99.9, 1998},
		{"p99.9 of 1001 rounds up to the 1000th", seq(1001), 99.9, 1000},
		{"p99.99 of 10000 is the 9999th", seq(10000), 99.99, 9999},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var r LatencyRecorder
			// Insert in reverse to exercise sorting.
			for i := len(tt.samples) - 1; i >= 0; i-- {
				r.Add(tt.samples[i])
			}
			if got := r.Percentile(tt.p); got != tt.want {
				t.Fatalf("Percentile(%v) of %d samples = %v, want %v", tt.p, len(tt.samples), got, tt.want)
			}
		})
	}
}

// seq returns the samples 1..n ns, so sample values double as 1-based
// ranks in the assertions.
func seq(n int) []sim.Duration {
	out := make([]sim.Duration, n)
	for i := range out {
		out[i] = sim.Duration(i + 1)
	}
	return out
}

func TestPercentileEmpty(t *testing.T) {
	var r LatencyRecorder
	if got := r.Percentile(50); got != 0 {
		t.Fatalf("Percentile on empty recorder = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	var r LatencyRecorder
	for _, d := range []sim.Duration{30, 10, 20} {
		r.Add(d)
	}
	if r.Max() != 30 {
		t.Fatalf("Max = %v, want 30", r.Max())
	}
}

// TestCDFNearestRank: every CDF point is the nearest-rank sample. The
// samples 1..400 put point i of 100 at 4i; a truncating float index
// lands fractions 0.29, 0.57 and 0.58 one sample low. With 10 samples
// and 4 points the ranks are 3, 5, 8, 10.
func TestCDFNearestRank(t *testing.T) {
	var r LatencyRecorder
	for d := sim.Duration(400); d >= 1; d-- {
		r.Add(d)
	}
	for i, pt := range r.CDF(100) {
		if want := sim.Duration(4 * (i + 1)); pt.Latency != want {
			t.Errorf("CDF(100)[%d] = %v at %.2f, want %v", i, pt.Latency, pt.Fraction, want)
		}
	}
	var s LatencyRecorder
	for d := sim.Duration(1); d <= 10; d++ {
		s.Add(d)
	}
	var got []sim.Duration
	for _, pt := range s.CDF(4) {
		got = append(got, pt.Latency)
	}
	if want := []sim.Duration{3, 5, 8, 10}; !slices.Equal(got, want) {
		t.Errorf("CDF(4) of 1..10 = %v, want %v", got, want)
	}
}
