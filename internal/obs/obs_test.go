package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"heron/internal/sim"
)

// fakeClock is a manually advanced Clock for tests.
type fakeClock struct{ t sim.Time }

func (c *fakeClock) Now() sim.Time { return c.t }

// TestNilSafety exercises every exported method on nil receivers; any
// panic fails the test.
func TestNilSafety(t *testing.T) {
	var o *Observer
	if New(nil, nil) != nil {
		t.Fatal("New(nil, nil) should return nil")
	}
	if o.Tracer() != nil || o.Metrics() != nil || o.Scope("x") != nil {
		t.Fatal("nil observer accessors should return nil")
	}
	tk := o.Track("p", "t", nil)
	if tk != nil {
		t.Fatal("nil observer Track should return nil")
	}
	sp := tk.Begin("s")
	sp.Arg("k", 1).End()
	sp.End() // double-end on nil
	tk.BeginAsync("c", "a").End()
	tk.Instant("i", nil)
	tk.Count("q", 1)

	c := o.Counter("c")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value should be 0")
	}
	h := o.Histogram("h")
	h.Observe(time5())
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should report zeros")
	}

	var tr *Tracer
	if tr.Track("p", "t", nil) != nil || tr.Events() != nil {
		t.Fatal("nil tracer accessors should return nil")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil tracer JSON invalid: %v", err)
	}

	var m *Metrics
	if m.Counter("x") != nil || m.Histogram("x") != nil {
		t.Fatal("nil metrics accessors should return nil")
	}
	snap := m.Snapshot(0)
	if len(snap.Counters)+len(snap.Histograms) != 0 {
		t.Fatal("nil metrics snapshot should be empty")
	}
	_ = snap.Format()
}

func time5() sim.Duration { return 5 * sim.Microsecond }

func TestCounter(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := m.Counter("reqs").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat")
	// 100 samples: 1us, 2us, ..., 100us.
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Duration(i) * sim.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Max() != 100*sim.Microsecond {
		t.Fatalf("max = %v, want 100us", h.Max())
	}
	wantMean := sim.Duration(50500) * sim.Nanosecond // (1+...+100)/100 us
	if h.Mean() != wantMean {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
	// Log buckets bound quantiles from above: p50 (rank 50 = 50000ns)
	// lands in the [2^15, 2^16) ns bucket, reported as its upper bound
	// 65535ns; p99 clamps to the observed max.
	p50 := h.Quantile(0.50)
	if p50 < 50*sim.Microsecond || p50 >= 66*sim.Microsecond {
		t.Fatalf("p50 = %v, want in [50us, 66us)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 99*sim.Microsecond || p99 > 100*sim.Microsecond {
		t.Fatalf("p99 = %v, want in [99us, 100us]", p99)
	}
	if q := h.Quantile(1.0); q != 100*sim.Microsecond {
		t.Fatalf("p100 = %v, want 100us (clamped to max)", q)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat")
	h.Observe(7 * sim.Microsecond)
	// With one sample, every quantile is that sample (clamped to min=max).
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		if got := h.Quantile(q); got != 7*sim.Microsecond {
			t.Fatalf("Quantile(%v) = %v, want 7us", q, got)
		}
	}
}

func TestScopePrefixing(t *testing.T) {
	tr := NewTracer()
	m := NewMetrics()
	o := New(tr, m)
	s := o.Scope("fig6").Scope("w4")
	clk := &fakeClock{}
	tk := s.Track("node1", "exec", clk)
	if tk.process != "fig6/w4/node1" {
		t.Fatalf("track process = %q, want fig6/w4/node1", tk.process)
	}
	s.Counter("reqs").Inc()
	snap := m.Snapshot(0)
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "fig6/w4/reqs" {
		t.Fatalf("counter names = %+v, want fig6/w4/reqs", snap.Counters)
	}
}

func TestPidTidAssignment(t *testing.T) {
	tr := NewTracer()
	clk := &fakeClock{}
	a1 := tr.Track("nodeA", "exec", clk)
	a2 := tr.Track("nodeA", "ctl", clk)
	b1 := tr.Track("nodeB", "exec", clk)
	if a1.pid != 1 || a2.pid != 1 || b1.pid != 2 {
		t.Fatalf("pids = %d,%d,%d, want 1,1,2", a1.pid, a2.pid, b1.pid)
	}
	if a1.tid != 1 || a2.tid != 2 || b1.tid != 1 {
		t.Fatalf("tids = %d,%d,%d, want 1,2,1", a1.tid, a2.tid, b1.tid)
	}
	if again := tr.Track("nodeA", "exec", clk); again != a1 {
		t.Fatal("re-registering a track should return the same instance")
	}
}

// buildTrace records a small fixed scenario and returns the JSON bytes.
func buildTrace(t *testing.T) []byte {
	t.Helper()
	tr := NewTracer()
	clk := &fakeClock{}
	o := New(tr, NewMetrics())
	tk := o.Track("node1", "exec", clk)
	nic := o.Track("node1", "nic", clk)

	outer := tk.Begin("request")
	clk.t = 1000
	inner := tk.Begin("execute").Arg("keys", 3)
	rd := nic.BeginAsync("rdma", "read")
	clk.t = 2500
	rd.Arg("bytes", 64).End()
	clk.t = 3000
	inner.End()
	tk.Instant("reply", map[string]any{"msg": 7})
	nic.Count("queue_depth", 2)
	clk.t = 4000
	outer.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

func TestWriteJSONValidAndDeterministic(t *testing.T) {
	b1 := buildTrace(t)
	b2 := buildTrace(t)
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical scenarios should produce byte-identical JSON")
	}
	var parsed struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1, &parsed); err != nil {
		t.Fatalf("trace JSON invalid: %v\n%s", err, b1)
	}
	phases := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
	}
	// 2 metadata names for process + 2 threads, 2 complete spans, 1 async
	// pair, 1 instant, 1 counter sample.
	if phases["M"] != 3 || phases["X"] != 2 || phases["b"] != 1 || phases["e"] != 1 || phases["i"] != 1 || phases["C"] != 1 {
		t.Fatalf("phase counts = %v", phases)
	}
	// Events must be sorted by ts.
	last := -1.0
	for _, ev := range parsed.TraceEvents {
		if ev["ph"] == "M" {
			continue
		}
		ts, _ := ev["ts"].(float64)
		if ts < last {
			t.Fatalf("events out of order: %v after %v", ts, last)
		}
		last = ts
	}
}

func TestSnapshotFormat(t *testing.T) {
	m := NewMetrics()
	m.Counter("b").Inc()
	m.Counter("a").Add(2)
	m.Histogram("h").Observe(3 * sim.Millisecond)
	snap := m.Snapshot(sim.Time(5 * sim.Second))
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a" || snap.Counters[1].Name != "b" {
		t.Fatalf("counters not name-sorted: %+v", snap.Counters)
	}
	out := snap.Format()
	for _, want := range []string{"counters:", "histograms:", "a", "h"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}
