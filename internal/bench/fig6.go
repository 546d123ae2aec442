package bench

import (
	"fmt"
	"strings"

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

// runFig6Workload measures one single-client workload and splits latency
// into the paper's three stages using the home-partition rank-0 trace.
// Each workload's spans and metrics land under their own observer scope,
// so the five runs share one trace file without colliding.
func runFig6Workload(name string, warehouses, fixedParts, requests int, seed int64, o *obs.Observer) (Fig6Row, error) {
	opt := DefaultOptions(warehouses)
	opt.ClientsPerPartition = 0 // one client
	opt.Seed = seed
	opt.Obs = o.Scope(name)
	opt.FixedPartitions = fixedParts
	if fixedParts == 0 {
		// The paper's bottom bar: one client submitting New-Order
		// requests in a closed loop.
		opt.Mix = &tpcc.Mix{NewOrder: 100}
	}
	run, err := RunRequests(opt, requests)
	if err != nil {
		return Fig6Row{}, err
	}

	row := Fig6Row{Workload: name}
	var ordering, coord, exec sim.Duration
	n := 0
	for _, r := range run.Rows {
		if !r.traced {
			continue
		}
		ordering += r.Ordering
		coord += r.Coordination
		exec += r.Execution
		n++
	}
	if n > 0 {
		row.Ordering = ordering / sim.Duration(n)
		row.Coordination = coord / sim.Duration(n)
		row.Execution = exec / sim.Duration(n)
	}
	row.Total = run.Latency.Mean()
	row.Requests = run.Latency.Count()
	row.CDF = run.Latency.CDF(100)
	return row, nil
}

// RunFig6 regenerates Figure 6: the latency breakdown with one client for
// the TPCC mix plus fixed 1-4 partition New-Order workloads, and the
// latency CDFs. A non-empty workload ("tpcc" or "1WH".."4WH", any case)
// runs only that one: a single simulation, which a critical-path profile
// needs, since every run numbers its requests alike.
func RunFig6(workload string, requests int, o *obs.Observer) (*Fig6Result, error) {
	if requests <= 0 {
		requests = 400
	}
	res := &Fig6Result{}
	// A workload's index is its fixed partition count; 0 is the TPCC mix.
	for fixed, name := range []string{"Tpcc", "1WH", "2WH", "3WH", "4WH"} {
		if workload != "" && !strings.EqualFold(workload, name) {
			continue
		}
		row, err := runFig6Workload(name, 4, fixed, requests, 1, o)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("fig6: unknown workload %q (want tpcc or 1WH..4WH)", workload)
	}
	return res, nil
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
