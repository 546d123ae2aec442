package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"strings"

	"heron/internal/obs"
)

// tracedLeg re-runs the workload with obs.Metrics and obs.CritPath
// attached and a CPU profile running, checks that tracing changed no
// virtual-time result, and fills res.PerLayer from four sources:
// the untraced leg's own results (R), the traced leg's instruments and
// profile (T), and the layer probes (P).
func tracedLeg(cfg config, spec *benchSpec, wl *workload, plain *legResult, res *result, spans *spanLog, root int) error {
	l := &leg{cfg: cfg, spans: spans, parent: spans.begin(root, "traced-leg"), metrics: obs.NewMetrics()}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	traced, err := wl.run(l)
	pprof.StopCPUProfile()
	spans.end(l.parent)
	if err != nil {
		return fmt.Errorf("traced leg: %w", err)
	}
	if err := samePlainAndTraced(plain, traced); err != nil {
		return err
	}

	out := make(map[string]float64)
	for name, v := range plain.layer {
		out[name] = v
	}
	runtimeLayers(plain, out)
	obsLayers(l.metrics.Snapshot(0), l.crit, out)
	out["obs.trace_overhead_share"] = (traced.host.wall.Seconds() - plain.host.wall.Seconds()) / plain.host.wall.Seconds()
	if ns := out["obs.critpath_residual_ns"]; ns != 0 {
		res.fail(fmt.Sprintf("CritPath segment sum differs from end-to-end latency by %v ns", ns))
	}

	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	res.ProfileSamples = samples
	for layer, share := range shares {
		out[layer+".host_cpu_share"] = share
	}

	if err := spans.timed(root, "probes", func() error { return probes(cfg, out) }); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	// A layer the workload leaves idle reports zero.
	for _, m := range spec.PerLayer {
		if _, ok := out[m.Name]; !ok {
			out[m.Name] = 0
		}
	}
	res.PerLayer = out
	return nil
}

// samePlainAndTraced is the determinism guard: tracing is passive, so
// every virtual-time result of the traced leg must equal the untraced
// leg's bit for bit. The same check is what lets a later change show
// that a simulator-only speed-up left every simulated statistic alone.
func samePlainAndTraced(plain, traced *legResult) error {
	if plain.attempted != traced.attempted || plain.failed != traced.failed || plain.completed != traced.completed {
		return fmt.Errorf("tracing changed the run: attempted/failed/completed %d/%d/%d untraced, %d/%d/%d traced",
			plain.attempted, plain.failed, plain.completed, traced.attempted, traced.failed, traced.completed)
	}
	for name, v := range plain.v {
		if t := traced.v[name]; math.Float64bits(t) != math.Float64bits(v) {
			return fmt.Errorf("tracing changed the run: %s is %v untraced and %v traced", name, v, t)
		}
	}
	return nil
}

// runtimeLayers derives the sim and goruntime metrics that need no
// instrument: event counts and the Go runtime's own accounting over the
// untraced leg's measured phase.
func runtimeLayers(plain *legResult, out map[string]float64) {
	n := float64(plain.completed)
	out["sim.events_per_req"] = float64(plain.events) / n
	out["sim.host_events_per_s"] = float64(plain.events) / plain.host.wall.Seconds()
	if cpu := plain.host.user + plain.host.sys; cpu > 0 {
		out["goruntime.host_sys_share"] = plain.host.sys.Seconds() / cpu.Seconds()
	}
	out["goruntime.gc_cycles"] = float64(plain.host.gcCycles)
	out["goruntime.alloc_bytes_per_req"] = float64(plain.host.allocBytes) / n
}

// obsLayers reads the traced leg's instruments. Counters cover the whole
// traced run — warm-up and drain too — so per-request figures divide by
// the requests the CritPath saw over the same span, not by the window's
// completions.
func obsLayers(snap *obs.Snapshot, crit []*obs.CritPath, out map[string]float64) {
	var requests, attributed int
	var e2e, segSum int64
	seg := make(map[string]int64)
	segCount := make(map[string]int)
	for _, cp := range crit {
		p := cp.Profile(0)
		requests += p.Requests
		attributed += p.Attributed
		e2e += p.TotalE2ENS
		segSum += p.SegmentSumNS
		for _, s := range p.Segments {
			seg[s.Name] += s.TotalNS
			segCount[s.Name] += s.Count
		}
	}
	share := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += seg[n]
		}
		if e2e == 0 {
			return 0
		}
		return float64(ns) / float64(e2e)
	}
	meanUS := func(name string) float64 {
		if segCount[name] == 0 {
			return 0
		}
		return float64(seg[name]) / float64(segCount[name]) / 1e3
	}
	out["multicast.v_order_share"] = share("ordering")
	out["multicast.v_order_mean_us"] = meanUS("ordering")
	out["bench.v_pump_wait_share"] = share("pump_wait")
	out["core.v_coord2_wait_share"] = share("coord2_wait")
	out["core.v_coord4_wait_share"] = share("coord4_wait")
	out["core.v_addr_resolve_share"] = share("addr_resolve")
	out["core.v_read_fanout_share"] = share("read_post", "nic_wait", "version_select")
	out["core.v_reply_share"] = share("reply")
	out["core.v_other_share"] = share("other")
	out["store.v_local_read_share"] = share("local_read")
	out["store.v_write_apply_share"] = share("write_apply")
	out["tpcc.v_app_execute_share"] = share("app_execute")
	out["tpcc.v_app_execute_mean_us"] = meanUS("app_execute")
	out["lease.v_lease_wait_share"] = share("lease_wait")
	out["persist.v_durable_gate_share"] = share("durable_gate")
	if requests > 0 {
		out["obs.critpath_attributed_share"] = float64(attributed) / float64(requests)
	}
	out["obs.critpath_residual_ns"] = math.Abs(float64(segSum - e2e))

	// Counters: exact names, or summed over every queue pair / group.
	sums := map[string]float64{}
	for _, c := range snap.Counters {
		name := c.Name
		switch {
		case strings.HasPrefix(name, "rdma/qp/"):
			name = "rdma/qp/*" + name[strings.LastIndexByte(name, '/'):]
		case strings.HasPrefix(name, "mc/g"):
			name = "mc/*" + name[strings.LastIndexByte(name, '/'):]
		}
		sums[name] += float64(c.Value)
	}
	perReq := func(v float64) float64 {
		if requests == 0 {
			return 0
		}
		return v / float64(requests)
	}
	out["rdma.read_ops_per_req"] = perReq(sums["rdma/qp/*/read_ops"])
	out["rdma.write_ops_per_req"] = perReq(sums["rdma/qp/*/write_ops"])
	out["rdma.cas_ops_per_req"] = perReq(sums["rdma/qp/*/cas_ops"])
	out["rdma.send_ops_per_req"] = perReq(sums["rdma/qp/*/send_ops"])
	out["rdma.bytes_per_req"] = perReq(sums["rdma/qp/*/read_bytes"] + sums["rdma/qp/*/write_bytes"])
	out["rdma.write_dropped"] = sums["rdma/write_dropped"]
	out["rdma.cas_fail"] = sums["rdma/cas_fail"]
	out["multicast.delivered_per_req"] = perReq(sums["mc/*/delivered"])
	out["multicast.view_changes"] = sums["mc/*/view_changes"]
	out["multicast.truncated"] = sums["mc/*/truncated"]
	if ex := sums["core/executed"]; ex > 0 {
		out["core.multi_partition_share"] = sums["core/multi_partition"] / ex
	}
	out["core.read_retries"] = sums["core/read_retries"]
	out["core.state_transfers"] = sums["core/state_transfers"]
	out["core.skipped"] = sums["core/skipped"]
	out["core.post_write_errors"] = sums["core/post_write_errors"]

	// The worst node's p99 wait for a NIC to come free.
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, "rdma/n") && strings.HasSuffix(h.Name, "/nic_wait") {
			out["rdma.v_nic_wait_p99_us"] = math.Max(out["rdma.v_nic_wait_p99_us"], us(h.P99))
		}
	}
}
