// Command heron-trace runs a TPCC workload on Heron and writes a
// per-request trace to stdout: one row per completed request with its
// latency split into ordering, coordination, and execution — the raw data
// behind figures like the paper's Fig. 6, ready for external plotting.
// The default output is CSV; -json switches to a JSON array for parity
// with heron-bench. -trace additionally writes a Chrome trace_event file
// of the run's virtual-time spans, and -metrics prints an instrument
// snapshot to stderr. (The critical-path profile of a Fig. 6 workload is
// `heron-bench fig6 -workload 4WH -profile out.json`.)
//
// Usage:
//
//	heron-trace [-wh 4] [-clients 2] [-requests 2000] [-seed 1] [-workers 1]
//	            [-json] [-trace out.json] [-metrics]
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"heron/internal/bench"
	"heron/internal/obs"
	"heron/internal/sim"
)

func main() {
	wh := flag.Int("wh", 4, "warehouses (= partitions)")
	clients := flag.Int("clients", 2, "closed-loop clients per partition (0 = one client over every warehouse)")
	requests := flag.Int("requests", 2000, "total requests to trace")
	seed := flag.Int64("seed", 1, "workload seed")
	workers := flag.Int("workers", 1, "execution workers per replica (>1 enables the parallel extension)")
	asJSON := flag.Bool("json", false, "emit a JSON array instead of CSV")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file (load at ui.perfetto.dev)")
	metrics := flag.Bool("metrics", false, "print a metrics snapshot to stderr after the run")
	flag.Parse()

	if err := run(*wh, *clients, *requests, *seed, *workers, *asJSON, *tracePath, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "heron-trace:", err)
		os.Exit(1)
	}
}

func run(wh, clientsPerPart, totalRequests int, seed int64, workers int, asJSON bool, tracePath string, metrics bool) error {
	var tracer *obs.Tracer
	var reg *obs.Metrics
	if tracePath != "" {
		tracer = obs.NewTracer()
	}
	if metrics {
		reg = obs.NewMetrics()
	}

	opt := bench.DefaultOptions(wh)
	opt.ClientsPerPartition = clientsPerPart
	opt.Seed = seed
	opt.ExecWorkers = workers
	opt.Obs = obs.New(tracer, reg)
	nClients := max(clientsPerPart*wh, 1)
	res, err := bench.RunRequests(opt, (totalRequests+nClients-1)/nClients)
	if err != nil {
		return err
	}
	rows := res.Rows

	if asJSON {
		b, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	} else {
		out := csv.NewWriter(os.Stdout)
		if err := out.Write([]string{"kind", "partitions", "submit_ns", "total_ns", "ordering_ns", "coordination_ns", "execution_ns"}); err != nil {
			return err
		}
		ns := func(d sim.Duration) string { return strconv.FormatInt(int64(d), 10) }
		for _, r := range rows {
			err := out.Write([]string{
				r.Kind,
				strconv.Itoa(r.Partitions),
				ns(sim.Duration(r.Submit)),
				ns(r.Total),
				ns(r.Ordering),
				ns(r.Coordination),
				ns(r.Execution),
			})
			if err != nil {
				return err
			}
		}
		out.Flush()
		if err := out.Error(); err != nil {
			return err
		}
	}

	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[trace written to %s]\n", tracePath)
	}
	// The run ends when its last request completes.
	var end sim.Time
	if n := len(rows); n > 0 {
		end = rows[n-1].Submit + sim.Time(rows[n-1].Total)
	}
	if metrics {
		fmt.Fprint(os.Stderr, reg.Snapshot(end).Format())
	}
	fmt.Fprintf(os.Stderr, "traced %d requests over %.1fms of virtual time\n",
		len(rows), float64(end)/1e6)
	return nil
}
