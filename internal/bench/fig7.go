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
		opt.ClientsPerPartition = 0 // one client
		opt.Mix = mix
		opt.Obs = o.Scope(fmt.Sprint(kind))
		run, err := RunRequests(opt, requests)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig7Row{
			Kind:          kind,
			SingleLatency: run.LatencySingle.Mean(),
			MultiLatency:  run.LatencyMulti.Mean(),
			SingleCount:   run.LatencySingle.Count(),
			MultiCount:    run.LatencyMulti.Count(),
			CDF:           run.Latency.CDF(100),
		})
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
