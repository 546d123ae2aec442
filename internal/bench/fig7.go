package bench

import (
	"fmt"
	"strings"

	"heron/internal/obs"
	"heron/internal/sim"
	"heron/internal/tpcc"
)

// Fig7Row is the latency of one TPCC transaction type with one client.
type Fig7Row struct {
	Kind          tpcc.TxnKind
	SingleLatency sim.Duration // single-partition instances
	MultiLatency  sim.Duration // multi-partition instances (0 if none)
	SingleCount   int
	MultiCount    int
	CDF           []CDFPoint
}

// Fig7Result is the full figure.
type Fig7Result struct {
	Rows []Fig7Row
}

// RunFig7 regenerates Figure 7: the average latency of each TPCC
// transaction type, split into single- and multi-partition instances,
// with one closed-loop client per run.
func RunFig7(warehouses, requests int, o *obs.Observer) (*Fig7Result, error) {
	if warehouses <= 0 {
		warehouses = 4
	}
	if requests <= 0 {
		requests = 400
	}
	kinds := []tpcc.TxnKind{tpcc.TxnNewOrder, tpcc.TxnPayment, tpcc.TxnOrderStatus, tpcc.TxnDelivery, tpcc.TxnStockLevel}
	res := &Fig7Result{}
	for _, kind := range kinds {
		mix := &tpcc.Mix{}
		switch kind {
		case tpcc.TxnNewOrder:
			mix.NewOrder = 100
		case tpcc.TxnPayment:
			mix.Payment = 100
		case tpcc.TxnOrderStatus:
			mix.OrderStatus = 100
		case tpcc.TxnDelivery:
			mix.Delivery = 100
		case tpcc.TxnStockLevel:
			mix.StockLevel = 100
		}
		opt := DefaultOptions(warehouses)
		opt.ClientsPerPartition = 0 // single client total
		opt.Mix = mix
		opt.Obs = o.Scope(fmt.Sprint(kind))

		s := sim.NewScheduler()
		defer s.Close()
		d, _, err := BuildHeron(s, opt)
		if err != nil {
			return nil, err
		}
		cl := d.NewClient()
		w := tpcc.NewWorkload(opt.Seed, warehouses, opt.Scale)
		w.Mix = mix

		row := Fig7Row{Kind: kind}
		single := &LatencyRecorder{}
		multi := &LatencyRecorder{}
		all := &LatencyRecorder{}
		done := false
		s.Spawn("fig7-client", func(p *sim.Proc) {
			defer func() { done = true }()
			for i := 0; i < requests; i++ {
				txn := w.Next()
				parts := txn.Partitions()
				t0 := p.Now()
				if _, err := cl.Submit(p, parts, txn.Encode()); err != nil {
					return
				}
				lat := sim.Duration(p.Now() - t0)
				all.Add(lat)
				if len(parts) > 1 {
					multi.Add(lat)
				} else {
					single.Add(lat)
				}
			}
		})
		if err := runUntilDone(s, &done, 30*sim.Second); err != nil {
			return nil, err
		}
		row.SingleLatency = single.Mean()
		row.MultiLatency = multi.Mean()
		row.SingleCount = single.Count()
		row.MultiCount = multi.Count()
		row.CDF = all.CDF(100)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the per-type latencies.
func (r *Fig7Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 7: latency of TPCC transaction types (1 client)\n")
	fmt.Fprintf(&b, "%-12s  %16s  %16s\n", "type", "single-partition", "multi-partition")
	for _, row := range r.Rows {
		multi := "-"
		if row.MultiCount > 0 {
			multi = fmt.Sprintf("%s (n=%d)", fmtDur(row.MultiLatency), row.MultiCount)
		}
		fmt.Fprintf(&b, "%-12s  %16s  %16s\n", row.Kind,
			fmt.Sprintf("%s (n=%d)", fmtDur(row.SingleLatency), row.SingleCount), multi)
	}
	return b.String()
}
