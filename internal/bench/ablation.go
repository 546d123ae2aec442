package bench

import (
	"fmt"
	"strings"

	"heron/internal/core"
	"heron/internal/obs"
	"heron/internal/sim"
)

// CutoffRow is one point of the cut-off delay ablation (Section V-E1:
// "How to determine the efficient cut-off time for coordination?").
type CutoffRow struct {
	Cutoff         sim.Duration
	Throughput     float64
	Latency        sim.Duration
	StateTransfers uint64
	Skipped        uint64
}

// CutoffResult is the full ablation.
type CutoffResult struct {
	SlowDelay sim.Duration
	Rows      []CutoffRow
}

// RunCutoffAblation sweeps the anti-lagger cut-off delay with one
// artificially slow replica per partition: with no cut-off the slow
// replica keeps falling behind and resorts to state transfer; a cut-off
// of a fraction of a request's execution time practically eliminates
// laggers, at a small latency cost — the design trade-off the paper's
// heuristic settles.
func RunCutoffAblation(cutoffs []sim.Duration, slow sim.Duration, window sim.Duration, o *obs.Observer) (*CutoffResult, error) {
	if len(cutoffs) == 0 {
		cutoffs = []sim.Duration{0, 2 * sim.Microsecond, 5 * sim.Microsecond, 10 * sim.Microsecond, 20 * sim.Microsecond, 50 * sim.Microsecond}
	}
	if slow <= 0 {
		slow = 6 * sim.Microsecond
	}
	if window <= 0 {
		window = 80 * sim.Millisecond
	}
	res := &CutoffResult{SlowDelay: slow}
	for i, cutoff := range cutoffs {
		opt := DefaultOptions(2)
		opt.Window = window
		opt.CutoffDelay = cutoff
		opt.Obs = o.Scope(fmt.Sprintf("cutoff%d", i))
		run, err := runHeron(opt, 0, func(d *core.Deployment) {
			// One lagging replica per partition.
			for g := 0; g < 2; g++ {
				d.Replica(core.PartitionID(g), 2).SetSlow(slow)
			}
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, CutoffRow{
			Cutoff:         cutoff,
			Throughput:     run.Throughput,
			Latency:        run.Latency.Mean(),
			StateTransfers: run.StateTransfers,
			Skipped:        run.Skipped,
		})
	}
	return res, nil
}

// Format renders the ablation.
func (r *CutoffResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cut-off delay ablation (one replica per partition slowed by %s)\n", fmtDur(r.SlowDelay))
	fmt.Fprintf(&b, "%10s  %12s  %10s  %15s  %10s\n", "cutoff", "tput/s", "latency", "state transfers", "skipped")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10s  %12.0f  %10s  %15d  %10d\n",
			fmtDur(row.Cutoff), row.Throughput, fmtDur(row.Latency), row.StateTransfers, row.Skipped)
	}
	return b.String()
}
