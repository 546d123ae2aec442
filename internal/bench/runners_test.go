package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"heron/internal/obs"
	"heron/internal/sim"
)

// These tests run each experiment at reduced size and assert the SHAPE
// results the paper reports — who wins, what grows, what stays flat —
// rather than absolute numbers (see EXPERIMENTS.md for the full-size
// paper-vs-measured comparison).

func TestFig4Shape(t *testing.T) {
	res, err := RunFig4([]int{1, 2}, 4, 40*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Layering: ordering alone > ordering+coordination > full TPCC.
		if !(row.Ramcast > row.HeronNull && row.HeronNull > row.TPCC) {
			t.Fatalf("%dWH: expected Ramcast > Heron(null) > TPCC, got %+v", row.Warehouses, row)
		}
		if row.LocalTPCC < row.TPCC {
			t.Fatalf("%dWH: local-only TPCC slower than standard mix: %+v", row.Warehouses, row)
		}
	}
	// Local TPCC scales nearly linearly from 1 to 2 partitions.
	r1, r2 := res.Rows[0], res.Rows[1]
	if ratio := r2.LocalTPCC / r1.LocalTPCC; ratio < 1.6 {
		t.Fatalf("local TPCC 2WH/1WH scaling = %.2f, want near-linear", ratio)
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := RunFig5([]int{2}, 50*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	// The paper's headline: more than an order of magnitude.
	if row.TputRatio < 5 {
		t.Fatalf("Heron/DynaStar throughput ratio = %.1f, want >> 1", row.TputRatio)
	}
	if row.LatencyRatio < 5 {
		t.Fatalf("DynaStar/Heron latency ratio = %.1f, want >> 1", row.LatencyRatio)
	}
	if row.DynaStarLatency < 500*sim.Microsecond {
		t.Fatalf("DynaStar latency %v implausibly low for message passing", row.DynaStarLatency)
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := RunFig6("", 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	tpccRow := res.Rows[0]
	// Coordination is the smallest stage (paper: ~2us of 35.4us).
	if tpccRow.Coordination > tpccRow.Execution || tpccRow.Coordination > tpccRow.Ordering {
		t.Fatalf("coordination should be the cheapest stage: %+v", tpccRow)
	}
	// Totals grow with the number of fixed partitions (1WH..4WH rows).
	for i := 2; i < len(res.Rows); i++ {
		if res.Rows[i].Total < res.Rows[i-1].Total {
			t.Fatalf("latency should grow with partitions touched: %s=%v < %s=%v",
				res.Rows[i].Workload, res.Rows[i].Total, res.Rows[i-1].Workload, res.Rows[i-1].Total)
		}
	}
	// Single-partition latency stays in the tens of microseconds.
	if res.Rows[1].Total > 100*sim.Microsecond {
		t.Fatalf("1WH total %v not microsecond-scale", res.Rows[1].Total)
	}
}

// TestFig6ProfileMatchesRow: one fig6 workload under the critical-path
// engine profiles exactly the requests it ran, its segment sum is its
// end-to-end total, and its mean is the row's within max(1 %, 1 µs), the
// tolerance of TestOpenLoopProfileSumsToE2E.
func TestFig6ProfileMatchesRow(t *testing.T) {
	const requests = 40
	cp := obs.NewCritPath(1)
	res, err := RunFig6("2WH", requests, obs.NewFull(nil, nil, cp, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	p := cp.Profile(0)
	if p.Requests != requests || row.Requests != requests {
		t.Fatalf("profile has %d requests, row %d; ran %d", p.Requests, row.Requests, requests)
	}
	if p.SegmentSumNS != p.TotalE2ENS {
		t.Fatalf("segment sum %d != total e2e %d", p.SegmentSumNS, p.TotalE2ENS)
	}
	total := int64(row.Total)
	if diff := abs(p.MeanE2ENS - total); diff > max(total/100, int64(sim.Microsecond)) {
		t.Fatalf("profile mean %d ns vs row total %d ns", p.MeanE2ENS, total)
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFig7Shape(t *testing.T) {
	res, err := RunFig7(4, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string]Fig7Row{}
	for _, row := range res.Rows {
		byKind[row.Kind.String()] = row
	}
	no := byKind["NewOrder"]
	if no.MultiCount == 0 {
		t.Fatal("no multi-partition New-Orders observed")
	}
	if no.MultiLatency < no.SingleLatency {
		t.Fatalf("multi-partition New-Order (%v) should exceed single (%v)", no.MultiLatency, no.SingleLatency)
	}
	// Stock-Level is the expensive local transaction (paper, Fig. 7).
	sl := byKind["StockLevel"]
	os := byKind["OrderStatus"]
	if sl.SingleLatency < 2*os.SingleLatency {
		t.Fatalf("StockLevel (%v) should dwarf OrderStatus (%v)", sl.SingleLatency, os.SingleLatency)
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := RunFig8(1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Fig8Row{}
	for _, row := range res.Rows {
		rows[row.Label] = row
	}
	// Protocol-only is a handful of microseconds (two one-sided writes).
	if p := rows["Protocol"].Latency; p > 20*sim.Microsecond || p <= 0 {
		t.Fatalf("protocol-only latency %v", p)
	}
	// Latency grows with size, roughly x10 per decade.
	if !(rows["64KB serialized"].Latency < rows["640KB serialized"].Latency &&
		rows["640KB serialized"].Latency < rows["6.4MB serialized"].Latency) {
		t.Fatal("serialized transfer latency not monotone in size")
	}
	// (De)serialization degrades non-serialized transfers considerably.
	for _, size := range []string{"64KB", "640KB", "6.4MB"} {
		ser := rows[size+" serialized"].Latency
		non := rows[size+" non-serialized"].Latency
		if non < 2*ser {
			t.Fatalf("%s: non-serialized (%v) should cost >> serialized (%v)", size, non, ser)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := RunTable1(20*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Configs) != 4 {
		t.Fatalf("want 4 configurations, got %d", len(res.Configs))
	}
	for _, cfg := range res.Configs {
		if cfg.Throughput <= 0 {
			t.Fatalf("%d partitions / %d replicas: no throughput", cfg.Partitions, cfg.Replicas)
		}
		for _, row := range cfg.Rows {
			// The key claim: the wait-for-all delay is a small fraction
			// of transaction latency.
			if row.AverageDelay > cfg.Latency/4 {
				t.Fatalf("average delay %v not small vs latency %v", row.AverageDelay, cfg.Latency)
			}
		}
	}
	// More partitions scale throughput.
	if res.Configs[2].Throughput < res.Configs[0].Throughput {
		t.Fatal("4 partitions slower than 2")
	}
}

func TestCutoffAblationShape(t *testing.T) {
	res, err := RunCutoffAblation([]sim.Duration{0, 50 * sim.Microsecond}, 6*sim.Microsecond, 30*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	noCutoff, bigCutoff := res.Rows[0], res.Rows[1]
	// Without the heuristic the slow replicas keep lagging into state
	// transfer; a sufficient cut-off practically eliminates laggers
	// (Section V-E1).
	if noCutoff.StateTransfers == 0 {
		t.Fatal("expected laggers with no cut-off and slow replicas")
	}
	if bigCutoff.StateTransfers >= noCutoff.StateTransfers {
		t.Fatalf("cut-off did not reduce state transfers: %d -> %d",
			noCutoff.StateTransfers, bigCutoff.StateTransfers)
	}
}

func TestStatsRecorder(t *testing.T) {
	r := &LatencyRecorder{}
	for i := 1; i <= 100; i++ {
		r.Add(sim.Duration(i) * sim.Microsecond)
	}
	if got := r.Mean(); got != 50500*sim.Nanosecond {
		t.Fatalf("mean = %v", got)
	}
	if got := r.Percentile(50); got != 50*sim.Microsecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := r.Percentile(99); got != 99*sim.Microsecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := r.Max(); got != 100*sim.Microsecond {
		t.Fatalf("max = %v", got)
	}
	cdf := r.CDF(10)
	if len(cdf) != 10 || cdf[9].Fraction != 1.0 || cdf[9].Latency != 100*sim.Microsecond {
		t.Fatalf("cdf = %+v", cdf)
	}
	if r.Stddev() <= 0 {
		t.Fatal("stddev should be positive")
	}
	if Throughput(100, 10*sim.Millisecond) != 10000 {
		t.Fatalf("throughput = %f", Throughput(100, 10*sim.Millisecond))
	}
}

func TestFanoutShape(t *testing.T) {
	res, err := RunFanout([]int{1, 4, 16}, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	r1, r4, r16 := res.Rows[0], res.Rows[1], res.Rows[2]
	// One object: posting overhead aside, sync and pipelined coincide.
	if ratio := float64(r1.Sync) / float64(r1.Pipelined); ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("k=1 sync/pipelined = %.2f, want ~1", ratio)
	}
	// Sync scales linearly with the read-set size.
	if ratio := float64(r16.Sync) / float64(r1.Sync); ratio < 12 {
		t.Fatalf("sync 16/1 scaling = %.1f, want ~16 (linear)", ratio)
	}
	// Pipelined scales near-flat: max of the READ latencies plus per-verb
	// posting/occupancy overhead, nowhere near 16x.
	if ratio := float64(r16.Pipelined) / float64(r1.Pipelined); ratio > 4 {
		t.Fatalf("pipelined 16/1 scaling = %.1f, want near-flat", ratio)
	}
	if r16.Speedup < 4 {
		t.Fatalf("k=16 speedup = %.1fx, want >= 4x", r16.Speedup)
	}
	if r4.Pipelined <= r1.Pipelined {
		t.Fatalf("pipelined latency must still grow with occupancy: k=4 %v <= k=1 %v", r4.Pipelined, r1.Pipelined)
	}
}

// TestFanoutDeterministic: same parameters, identical latencies, whether
// or not the run is traced; and the trace carries metadata and the async
// begin/end spans of the RDMA verbs.
func TestFanoutDeterministic(t *testing.T) {
	a, err := RunFanout([]int{8}, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	b, err := RunFanout([]int{8}, 4, 0, obs.New(tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0] != b.Rows[0] {
		t.Fatalf("fanout not deterministic: %+v vs %+v", a.Rows[0], b.Rows[0])
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid *int   `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "" || ev.Pid == nil {
			t.Fatal("trace event without ph or pid")
		}
		phases[ev.Ph]++
	}
	for _, ph := range []string{"M", "b", "e"} {
		if phases[ph] == 0 {
			t.Fatalf("trace has no %q events; phases: %v", ph, phases)
		}
	}
}
