package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"heron/internal/sim"
)

// Metrics is a registry of named counters and latency histograms.
// Instruments are deduplicated by name, so independent subsystems (or all
// replicas of a deployment) naming the same instrument share it.
// Snapshots iterate names in sorted order, keeping output deterministic.
type Metrics struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter. Resolve
// once at wiring time on hot paths; the per-event Inc/Add is then a
// single nil test plus an integer add.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Histogram returns (creating on first use) the named histogram.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	h, ok := m.hists[name]
	if !ok {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing count.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram accumulates durations in logarithmic (power-of-two) buckets:
// bucket i holds samples in [2^(i-1), 2^i) nanoseconds, bucket 0 holds
// zero. Quantiles use the nearest-rank rule over the buckets and report
// the bucket's upper bound, clamped to the observed maximum, so p99 is
// never under-reported by more than one bucket's resolution.
type Histogram struct {
	count   uint64
	sum     int64
	max     int64
	min     int64
	buckets [65]uint64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the average duration.
func (h *Histogram) Mean() sim.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / int64(h.count))
}

// Max returns the largest observed duration.
func (h *Histogram) Max() sim.Duration {
	if h == nil {
		return 0
	}
	return sim.Duration(h.max)
}

// Quantile returns the q-th quantile (0 < q <= 1) by nearest rank over
// the log buckets.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= rank {
			if i == 0 {
				return 0
			}
			upper := int64(1)<<uint(i) - 1
			if upper > h.max {
				upper = h.max
			}
			if upper < h.min {
				upper = h.min
			}
			return sim.Duration(upper)
		}
	}
	return sim.Duration(h.max)
}

// Snapshot is the state of every instrument at one virtual instant.
type Snapshot struct {
	At         sim.Time        `json:"at_ns"`
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// CounterSnap is one counter's snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// HistogramSnap is one histogram's snapshot with nearest-rank quantiles.
type HistogramSnap struct {
	Name  string       `json:"name"`
	Count uint64       `json:"count"`
	Mean  sim.Duration `json:"mean_ns"`
	P50   sim.Duration `json:"p50_ns"`
	P95   sim.Duration `json:"p95_ns"`
	P99   sim.Duration `json:"p99_ns"`
	Max   sim.Duration `json:"max_ns"`
}

// Snapshot captures every instrument, sorted by name. at stamps the
// virtual instant of the capture (pass 0 when not meaningful).
func (m *Metrics) Snapshot(at sim.Time) *Snapshot {
	s := &Snapshot{At: at}
	if m == nil {
		return s
	}
	for _, name := range sortedKeys(m.counters) {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: m.counters[name].v})
	}
	for _, name := range sortedKeys(m.hists) {
		h := m.hists[name]
		s.Histograms = append(s.Histograms, HistogramSnap{
			Name: name, Count: h.count, Mean: h.Mean(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99), Max: h.Max(),
		})
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Format renders the snapshot as aligned text tables.
func (s *Snapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics snapshot at t=%s\n", fmtDur(sim.Duration(s.At)))
	if len(s.Counters) > 0 {
		b.WriteString("\ncounters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-56s %12d\n", c.Name, c.Value)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("\nhistograms:\n")
		fmt.Fprintf(&b, "  %-56s %8s  %10s  %10s  %10s  %10s  %10s\n",
			"name", "count", "mean", "p50", "p95", "p99", "max")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "  %-56s %8d  %10s  %10s  %10s  %10s  %10s\n",
				h.Name, h.Count, fmtDur(h.Mean), fmtDur(h.P50), fmtDur(h.P95), fmtDur(h.P99), fmtDur(h.Max))
		}
	}
	return b.String()
}
