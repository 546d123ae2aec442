package bench

import (
	"fmt"
	"strings"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/sim"
	"heron/internal/tpcc"
)

// Fig6Row is the latency breakdown of one workload with a single client.
type Fig6Row struct {
	Workload     string
	Ordering     sim.Duration // submission -> atomic multicast delivery
	Coordination sim.Duration // phase 2 + phase 4 waits
	Execution    sim.Duration
	Total        sim.Duration // client-observed
	Requests     int
	CDF          []CDFPoint
}

// Fig6Result is the full figure.
type Fig6Result struct {
	Rows []Fig6Row
}

// traceSink collects trace records keyed by request id, for one replica.
type traceSink struct {
	recs map[multicast.MsgID]core.TraceRecord
}

func (t *traceSink) RequestDone(part core.PartitionID, rank int, id multicast.MsgID, rec core.TraceRecord) {
	t.recs[id] = rec
}

// runFig6Workload measures one single-client workload and splits latency
// into the paper's three stages using the home-partition rank-0 trace.
// Each workload's spans and metrics land under their own observer scope,
// so the five runs share one trace file without colliding.
func runFig6Workload(name string, warehouses, fixedParts, requests int, seed int64, o *obs.Observer) (Fig6Row, error) {
	s := sim.NewScheduler()
	defer s.Close()
	opt := DefaultOptions(warehouses)
	opt.Seed = seed
	opt.Obs = o.Scope(name)
	d, _, err := BuildHeron(s, opt)
	if err != nil {
		return Fig6Row{}, err
	}
	// Trace on rank 0 of every partition.
	sinks := make([]*traceSink, warehouses)
	for g := 0; g < warehouses; g++ {
		sinks[g] = &traceSink{recs: make(map[multicast.MsgID]core.TraceRecord)}
		d.Replica(core.PartitionID(g), 0).SetTracer(sinks[g])
	}

	cl := d.NewClient()
	w := tpcc.NewWorkload(opt.Seed, warehouses, opt.Scale)
	w.FixedPartitions = fixedParts
	if fixedParts == 0 {
		// The paper's bottom bar: one client submitting New-Order
		// requests in a closed loop.
		w.Mix = &tpcc.Mix{NewOrder: 100}
	}

	row := Fig6Row{Workload: name}
	lat := &LatencyRecorder{}
	type sample struct {
		id     multicast.MsgID
		submit sim.Time
		total  sim.Duration
		home   core.PartitionID
	}
	var samples []sample
	done := false
	s.Spawn("fig6-client", func(p *sim.Proc) {
		defer func() { done = true }()
		for i := 0; i < requests; i++ {
			txn := w.Next()
			parts := txn.Partitions()
			home := tpcc.PartitionOfWarehouse(int(txn.WID))
			t0 := p.Now()
			if _, err := cl.Submit(p, parts, txn.Encode()); err != nil {
				return
			}
			total := sim.Duration(p.Now() - t0)
			lat.Add(total)
			// The breakdown is traced at the home partition's replica, as
			// in the paper: it executes the full transaction.
			samples = append(samples, sample{id: cl.LastMsgID(), submit: t0, total: total, home: home})
		}
	})
	if err := runUntilDone(s, &done, 20*sim.Second); err != nil {
		return Fig6Row{}, err
	}

	var ordering, coord, exec sim.Duration
	n := 0
	for _, sm := range samples {
		rec, ok := sinks[sm.home].recs[sm.id]
		if !ok {
			continue
		}
		ordering += sim.Duration(rec.Delivered - sm.submit)
		coord += rec.CoordPhase2 + rec.CoordPhase4
		exec += rec.Exec
		n++
	}
	if n > 0 {
		row.Ordering = ordering / sim.Duration(n)
		row.Coordination = coord / sim.Duration(n)
		row.Execution = exec / sim.Duration(n)
	}
	row.Total = lat.Mean()
	row.Requests = lat.Count()
	row.CDF = lat.CDF(100)
	return row, nil
}

// RunFig6 regenerates Figure 6: the latency breakdown with one client for
// the TPCC mix plus fixed 1-4 partition New-Order workloads, and the
// latency CDFs.
func RunFig6(requests int, o *obs.Observer) (*Fig6Result, error) {
	if requests <= 0 {
		requests = 400
	}
	res := &Fig6Result{}
	row, err := runFig6Workload("Tpcc", 4, 0, requests, 1, o)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	for k := 1; k <= 4; k++ {
		warehouses := 4
		row, err := runFig6Workload(fmt.Sprintf("%dWH", k), warehouses, k, requests, 1, o)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RunFig6CritPath runs one fig6 workload with the causal critical-path
// engine armed and returns its deterministic latency-attribution profile
// (heron-trace critpath's backend). workload selects the fixed partition
// count: "1WH".."4WH", or "tpcc" for the mixed workload. The profile's
// segment sum equals the total end-to-end latency by construction; the
// harness CI job asserts they agree within 1%.
func RunFig6CritPath(workload string, requests, slowestN int, o *obs.Observer) (*obs.CPProfile, error) {
	if requests <= 0 {
		requests = 400
	}
	if slowestN < 0 {
		slowestN = 0
	}
	cp := obs.NewCritPath(1)
	o = obs.NewFull(o.Tracer(), o.Metrics(), cp, o.Heat(), o.Flight())
	var fixed int
	switch strings.ToLower(workload) {
	case "tpcc":
		fixed = 0
	case "1wh", "2wh", "3wh", "4wh":
		fixed = int(workload[0] - '0')
	default:
		return nil, fmt.Errorf("fig6: unknown workload %q (want tpcc or 1WH..4WH)", workload)
	}
	if _, err := runFig6Workload(workload, 4, fixed, requests, 1, o); err != nil {
		return nil, err
	}
	return cp.Profile(slowestN), nil
}

// Format renders the breakdown and CDF summaries.
func (r *Fig6Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 6: latency breakdown with 1 client (averages)\n")
	fmt.Fprintf(&b, "%-6s  %10s  %12s  %10s  %10s  %6s\n",
		"wl", "ordering", "coordination", "execution", "total", "n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s  %10s  %12s  %10s  %10s  %6d\n",
			row.Workload, fmtDur(row.Ordering), fmtDur(row.Coordination),
			fmtDur(row.Execution), fmtDur(row.Total), row.Requests)
	}
	b.WriteString("\nlatency CDF percentiles (p50 / p82 / p90 / p99):\n")
	for _, row := range r.Rows {
		p := func(f float64) sim.Duration {
			idx := int(f*float64(len(row.CDF))) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= len(row.CDF) {
				idx = len(row.CDF) - 1
			}
			return row.CDF[idx].Latency
		}
		fmt.Fprintf(&b, "%-6s  %10s  %10s  %10s  %10s\n", row.Workload,
			fmtDur(p(0.50)), fmtDur(p(0.82)), fmtDur(p(0.90)), fmtDur(p(0.99)))
	}
	return b.String()
}
