// Package heron's root benchmark suite: one testing.B benchmark per table
// and figure of the paper's evaluation, wrapping the internal/bench
// runners on reduced configurations (benchmarks report the key measured
// quantities as custom metrics; run `heron-bench` for full-size runs).
package heron_test

import (
	"testing"

	"heron/internal/bench"
	"heron/internal/sim"
)

// reportHeron attaches a run's virtual-time results as benchmark metrics.
func reportHeron(b *testing.B, r *bench.HeronRun) {
	b.Helper()
	b.ReportMetric(r.Throughput, "vreq/s")
	b.ReportMetric(float64(r.Latency.Mean())/1000, "vlat-us")
	b.ReportMetric(float64(r.Latency.Percentile(99))/1000, "vp99-us")
}

// BenchmarkFig4TPCC measures Heron's TPCC throughput at 2 warehouses
// (Figure 4, third series).
func BenchmarkFig4TPCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := bench.DefaultOptions(2)
		opt.Window = 40 * sim.Millisecond
		r, err := bench.RunHeron(opt)
		if err != nil {
			b.Fatal(err)
		}
		reportHeron(b, r)
	}
}

// BenchmarkFig4Ramcast measures the ordering layer alone (Figure 4,
// first series).
func BenchmarkFig4Ramcast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := bench.DefaultOptions(2)
		opt.Window = 40 * sim.Millisecond
		r, err := bench.RunRamcast(opt)
		if err != nil {
			b.Fatal(err)
		}
		reportHeron(b, r)
	}
}

// BenchmarkFig4HeronNull measures ordering + coordination with null
// execution (Figure 4, second series).
func BenchmarkFig4HeronNull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := bench.DefaultOptions(2)
		opt.Window = 40 * sim.Millisecond
		opt.NullRequests = true
		r, err := bench.RunHeron(opt)
		if err != nil {
			b.Fatal(err)
		}
		reportHeron(b, r)
	}
}

// BenchmarkFig4LocalTPCC measures the local-only workload (Figure 4,
// fourth series).
func BenchmarkFig4LocalTPCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := bench.DefaultOptions(2)
		opt.Window = 40 * sim.Millisecond
		opt.LocalOnly = true
		r, err := bench.RunHeron(opt)
		if err != nil {
			b.Fatal(err)
		}
		reportHeron(b, r)
	}
}

// BenchmarkFig5DynaStar measures the message-passing baseline (Figure 5).
func BenchmarkFig5DynaStar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := bench.DefaultOptions(2)
		opt.Window = 80 * sim.Millisecond
		opt.ClientsPerPartition = 12
		r, err := bench.RunDynaStar(opt)
		if err != nil {
			b.Fatal(err)
		}
		reportHeron(b, r)
	}
}

// BenchmarkFig6Breakdown measures the single-client latency breakdown
// (Figure 6).
func BenchmarkFig6Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig6("", 60, nil)
		if err != nil {
			b.Fatal(err)
		}
		tpcc := res.Rows[0]
		b.ReportMetric(float64(tpcc.Ordering)/1000, "vorder-us")
		b.ReportMetric(float64(tpcc.Coordination)/1000, "vcoord-us")
		b.ReportMetric(float64(tpcc.Execution)/1000, "vexec-us")
		b.ReportMetric(float64(tpcc.Total)/1000, "vtotal-us")
	}
}

// BenchmarkFig7TxnLatency measures per-transaction-type latency
// (Figure 7), reporting New-Order single/multi.
func BenchmarkFig7TxnLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7(4, 80, nil)
		if err != nil {
			b.Fatal(err)
		}
		no := res.Rows[0]
		b.ReportMetric(float64(no.SingleLatency)/1000, "vsingle-us")
		b.ReportMetric(float64(no.MultiLatency)/1000, "vmulti-us")
	}
}

// BenchmarkTable1Delays measures the wait-for-all delay statistics
// (Table I), reporting the 2-partition/3-replica configuration.
func BenchmarkTable1Delays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable1(40*sim.Millisecond, nil)
		if err != nil {
			b.Fatal(err)
		}
		cfg := res.Configs[0]
		b.ReportMetric(cfg.Throughput, "vreq/s")
		b.ReportMetric(cfg.Rows[0].DelayedPct, "vdelayed-pct")
		b.ReportMetric(float64(cfg.Rows[0].AverageDelay)/1000, "vdelay-us")
	}
}

// BenchmarkFig8StateTransfer measures state-transfer latency (Figure 8),
// reporting the 64 KB serialized case.
func BenchmarkFig8StateTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig8(2, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].Latency)/1000, "vprotocol-us")
		b.ReportMetric(float64(res.Rows[1].Latency)/1000, "v64kb-us")
	}
}

// BenchmarkAblationCutoff measures the anti-lagger cut-off sweep.
func BenchmarkAblationCutoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunCutoffAblation(
			[]sim.Duration{0, 10 * sim.Microsecond, 50 * sim.Microsecond}, 0, 30*sim.Millisecond, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].StateTransfers), "vtransfers-nocutoff")
		b.ReportMetric(float64(res.Rows[len(res.Rows)-1].StateTransfers), "vtransfers-cutoff")
	}
}
