package bench

import (
	"fmt"
	"strings"

	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/sim"
)

// Table1Partition is one partition row of Table I.
type Table1Partition struct {
	PartitionID  int
	DelayedPct   float64
	AverageDelay sim.Duration
}

// Table1Config is one (partitions, replicas) configuration.
type Table1Config struct {
	Partitions int
	Replicas   int
	Throughput float64
	Latency    sim.Duration
	Rows       []Table1Partition
}

// Table1Result is the full table.
type Table1Result struct {
	Configs []Table1Config
}

// delayedTracer aggregates Table I's delayed-transaction statistics.
type delayedTracer struct {
	multi   int
	delayed int
	wait    sim.Duration
}

func (t *delayedTracer) RequestDone(part core.PartitionID, rank int, id multicast.MsgID, rec core.TraceRecord) {
	if !rec.MultiPartition {
		return
	}
	t.multi++
	if rec.Delayed {
		t.delayed++
		t.wait += rec.DelayWait
	}
}

// RunTable1 regenerates Table I: the fraction of transactions for which,
// at the instant a coordination majority was present, records from all
// replicas were not — and how long the tentative wait for all of them
// took. Measured at saturation, per partition id, for {2,4} partitions x
// {3,5} replicas.
func RunTable1(window sim.Duration, o *obs.Observer) (*Table1Result, error) {
	if window <= 0 {
		window = 150 * sim.Millisecond
	}
	res := &Table1Result{}
	for _, parts := range []int{2, 4} {
		for _, replicas := range []int{3, 5} {
			opt := DefaultOptions(parts)
			opt.Replicas = replicas
			opt.Window = window
			opt.Obs = o.Scope(fmt.Sprintf("t1-%dp%dr", parts, replicas))
			// A generous cut-off measures the true wait-for-all delay.
			opt.CutoffDelay = sim.Duration(sim.Millisecond)

			tracers := make([]*delayedTracer, parts)
			run, err := runHeron(opt, 0, func(d *core.Deployment) {
				for g := range tracers {
					tracers[g] = &delayedTracer{}
					for r := 0; r < replicas; r++ {
						d.Replica(core.PartitionID(g), r).SetTracer(tracers[g])
					}
				}
			})
			if err != nil {
				return nil, err
			}

			cfg := Table1Config{
				Partitions: parts,
				Replicas:   replicas,
				Throughput: run.Throughput,
				Latency:    run.Latency.Mean(),
			}
			for g := 0; g < parts; g++ {
				tr := tracers[g]
				row := Table1Partition{PartitionID: g + 1}
				if tr.multi > 0 {
					row.DelayedPct = float64(tr.delayed) / float64(tr.multi) * 100
				}
				if tr.delayed > 0 {
					row.AverageDelay = tr.wait / sim.Duration(tr.delayed)
				}
				cfg.Rows = append(cfg.Rows, row)
			}
			res.Configs = append(res.Configs, cfg)
		}
	}
	return res, nil
}

// Format renders the table in the paper's layout.
func (r *Table1Result) Format() string {
	var b strings.Builder
	b.WriteString("Table I: transaction delay when waiting for all vs a majority of replicas\n")
	for _, cfg := range r.Configs {
		fmt.Fprintf(&b, "\n%d partitions, %d replicas per partition\n", cfg.Partitions, cfg.Replicas)
		fmt.Fprintf(&b, "  max throughput: %.0f tps, average latency: %s\n", cfg.Throughput, fmtDur(cfg.Latency))
		fmt.Fprintf(&b, "  %12s  %22s  %14s\n", "partition id", "delayed transactions", "average delay")
		for _, row := range cfg.Rows {
			fmt.Fprintf(&b, "  %12d  %21.1f%%  %14s\n", row.PartitionID, row.DelayedPct, fmtDur(row.AverageDelay))
		}
	}
	return b.String()
}
