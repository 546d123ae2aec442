// Command heron-bench regenerates the tables and figures of the Heron
// paper's evaluation (Section V) on the simulated RDMA fabric, and runs
// the subsystem sweeps whose exit code is their verdict.
//
// Usage:
//
//	heron-bench <subcommand> [flags]
//
// Run it with no arguments for the list of subcommands, and
// heron-bench <subcommand> -h for that subcommand's flags and defaults.
//
// Every subcommand accepts -json to emit machine-readable results instead
// of the formatted table, for experiment runners and trajectory tracking.
// Every subcommand but all also accepts -trace out.json to write a
// Chrome trace_event file of the run's virtual-time spans (load it at
// ui.perfetto.dev) and -metrics to print an instrument snapshot after the
// run. The subcommands that run one simulation — openloop, lease (its
// leases-on leg) and fig6 with -workload — also accept -profile out.json
// to write the causal critical-path attribution profile (formatted table
// to stderr) and -slowest N to bound its outlier list; openloop's -heat
// writes per-partition heat telemetry,
// and -flightdir on openloop/chaos arms the always-on flight recorder
// (crashes and p99.9 latency outliers auto-dump a Perfetto-loadable
// ring of recent protocol events). Each subcommand prints the same
// rows/series the paper reports; see EXPERIMENTS.md for
// paper-vs-measured notes. trace is the raw data behind them: one CSV
// row (a JSON array with -json) per completed TPCC request, its latency
// split into ordering, coordination and execution.
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"heron/internal/bench"
	"heron/internal/obs"
	"heron/internal/sim"
)

func main() {
	var name string
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	c := lookup(name)
	if c == nil && name != "all" {
		fmt.Fprintln(os.Stderr, usage())
		os.Exit(2)
	}
	start := time.Now()
	var err error
	if c != nil {
		err = c.run(os.Args[2:])
	} else {
		err = runAll(os.Args[2:])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "heron-bench %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[%s completed in %v wall time]\n", name, time.Since(start).Round(time.Millisecond))
}

// usage is the one-line synopsis printed for a missing or unknown
// subcommand.
func usage() string {
	names := make([]string, 0, len(commands)+1)
	for _, c := range commands {
		names = append(names, c.name)
	}
	names = append(names, "all")
	return "usage: heron-bench {" + strings.Join(names, "|") + "} [flags] [-json]"
}

// lookup returns the table entry named name, or nil.
func lookup(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

// formatter is any experiment result renderable as a text table.
type formatter interface{ Format() string }

// gated is a sweep result with a pass condition.
type gated interface {
	formatter
	Gate() bool
}

// runFunc runs a subcommand under the observer its flags imply: nil when
// they ask for nothing, so the run stays on the zero-cost disabled path.
type runFunc func(o *obs.Observer) (formatter, error)

// command is one subcommand. Besides its own flags every subcommand takes
// -json, -trace and -metrics; see flagSet.
type command struct {
	name string
	// profile registers -profile and -slowest. Only a subcommand that
	// runs one simulation may take them: the critical-path engine keys
	// requests by id, and two simulations number their requests alike.
	profile bool
	// failure is a gated sweep's error when its result's Gate() fails,
	// so the exit code is the sweep's whole verdict; "" when ungated.
	failure string
	// flags registers the subcommand's own flags and returns its run,
	// which reads them once they are parsed.
	flags func(fs *flag.FlagSet) runFunc
}

// shared holds the flags every subcommand takes.
type shared struct {
	json, metrics  bool
	trace, profile string
	slowest        int
}

// flagSet registers c's own flags and the shared ones.
func (c *command) flagSet() (*flag.FlagSet, *shared, runFunc) {
	fs := flag.NewFlagSet(c.name, flag.ExitOnError)
	run := c.flags(fs)
	sh := &shared{}
	fs.BoolVar(&sh.json, "json", false, "emit machine-readable JSON")
	fs.StringVar(&sh.trace, "trace", "", "write a Chrome trace_event JSON file (load at ui.perfetto.dev)")
	fs.BoolVar(&sh.metrics, "metrics", false, "print a metrics snapshot after the run")
	if c.profile {
		fs.StringVar(&sh.profile, "profile", "", "write the critical-path latency-attribution profile to this JSON file (table printed to stderr)")
		fs.IntVar(&sh.slowest, "slowest", 5, "slowest requests to break down in the -profile output")
	}
	return fs, sh, run
}

// run is every subcommand's tail: parse its flags, run it under the
// observer they imply, write the trace file, the critical-path profile
// and the metrics snapshot (tables to stderr, so they never corrupt -json
// on stdout), emit the result, and fail when a gated result's gate does
// not hold.
func (c *command) run(args []string) error {
	fs, sh, run := c.flagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tr *obs.Tracer
	var m *obs.Metrics
	var cp *obs.CritPath
	if sh.trace != "" {
		tr = obs.NewTracer()
	}
	if sh.metrics {
		m = obs.NewMetrics()
	}
	if sh.profile != "" {
		cp = obs.NewCritPath(1)
	}
	res, err := run(obs.NewFull(tr, m, cp, nil, nil))
	if err != nil {
		return err
	}
	if tr != nil {
		if err := writeJSON(sh.trace, tr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[trace written to %s]\n", sh.trace)
	}
	if cp != nil {
		p := cp.Profile(sh.slowest)
		if err := writeJSON(sh.profile, p); err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, p.Format())
		fmt.Fprintf(os.Stderr, "[profile written to %s]\n", sh.profile)
	}
	if m != nil {
		fmt.Fprint(os.Stderr, m.Snapshot(0).Format())
	}
	if err := emit(res, sh.json); err != nil {
		return err
	}
	if c.failure != "" && !res.(gated).Gate() {
		return errors.New(c.failure)
	}
	return nil
}

// writeJSON writes a report to a new file at path.
func writeJSON(path string, r interface{ WriteJSON(io.Writer) error }) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emit prints a result as its formatted table, or as indented JSON when
// asJSON is set (for experiment runners and BENCH_*.json tracking).
func emit(res formatter, asJSON bool) error {
	if asJSON {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	fmt.Print(res.Format())
	return nil
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s, what string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad %s %q", what, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// commands is every subcommand but all, in usage order.
var commands = []command{
	{name: "fig4", flags: func(fs *flag.FlagSet) runFunc {
		wh := fs.String("wh", "1,2,4,8,16", "comma-separated warehouse counts")
		clients := fs.Int("clients", 0, "clients per partition (0 = default)")
		window := fs.Duration("window", 0, "measurement window of virtual time (0 = default)")
		return func(o *obs.Observer) (formatter, error) {
			counts, err := parseInts(*wh, "warehouse count")
			if err != nil {
				return nil, err
			}
			return bench.RunFig4(counts, *clients, sim.Duration(*window), o)
		}
	}},
	{name: "fig5", flags: func(fs *flag.FlagSet) runFunc {
		wh := fs.String("wh", "1,2,4,8,16", "comma-separated warehouse counts")
		window := fs.Duration("window", 0, "measurement window of virtual time (0 = default)")
		return func(o *obs.Observer) (formatter, error) {
			counts, err := parseInts(*wh, "warehouse count")
			if err != nil {
				return nil, err
			}
			return bench.RunFig5(counts, sim.Duration(*window), o)
		}
	}},
	{name: "fig6", profile: true, flags: func(fs *flag.FlagSet) runFunc {
		requests := fs.Int("requests", 400, "requests per workload")
		workload := fs.String("workload", "", "run one workload: tpcc or 1WH..4WH (empty = all five)")
		return func(o *obs.Observer) (formatter, error) {
			if o.CritPath() != nil && *workload == "" {
				return nil, fmt.Errorf("-profile needs -workload: each workload is its own simulation")
			}
			return bench.RunFig6(*workload, *requests, o)
		}
	}},
	{name: "fig7", flags: func(fs *flag.FlagSet) runFunc {
		wh := fs.Int("wh", 4, "warehouses")
		requests := fs.Int("requests", 400, "requests per transaction type")
		return func(o *obs.Observer) (formatter, error) { return bench.RunFig7(*wh, *requests, o) }
	}},
	{name: "fig8", flags: func(fs *flag.FlagSet) runFunc {
		runs := fs.Int("runs", 5, "repetitions per configuration")
		full := fs.Bool("full", false, "also recover a full-scale TPCC warehouse (uses ~400MB RAM)")
		return func(o *obs.Observer) (formatter, error) { return bench.RunFig8(*runs, *full, o) }
	}},
	{name: "table1", flags: func(fs *flag.FlagSet) runFunc {
		window := fs.Duration("window", 0, "measurement window of virtual time (0 = default)")
		return func(o *obs.Observer) (formatter, error) { return bench.RunTable1(sim.Duration(*window), o) }
	}},
	{name: "ablation", flags: func(fs *flag.FlagSet) runFunc {
		return func(o *obs.Observer) (formatter, error) { return bench.RunCutoffAblation(nil, 0, 0, o) }
	}},
	{name: "workers", flags: func(fs *flag.FlagSet) runFunc {
		wh := fs.Int("wh", 2, "warehouses")
		window := fs.Duration("window", 0, "measurement window of virtual time (0 = default)")
		return func(o *obs.Observer) (formatter, error) {
			return bench.RunWorkerAblation(nil, *wh, sim.Duration(*window), o)
		}
	}},
	{name: "fanout", flags: func(fs *flag.FlagSet) runFunc {
		sizes := fs.String("sizes", "1,2,4,8,16,32", "comma-separated read-set sizes")
		targets := fs.Int("targets", 4, "target nodes to stripe objects over")
		slot := fs.Int("slot", 0, "slot size in bytes (0 = dual-version slot of a 32-byte object)")
		return func(o *obs.Observer) (formatter, error) {
			ks, err := parseInts(*sizes, "read-set size")
			if err != nil {
				return nil, err
			}
			return bench.RunFanout(ks, *targets, *slot, o)
		}
	}},
	{name: "chaos", failure: "a schedule failed verification (see output)", flags: func(fs *flag.FlagSet) runFunc {
		schedules := fs.Int("schedules", 5, "number of seeded fault schedules to sweep")
		seed := fs.Int64("seed", 1, "base seed; schedule i uses seed+i")
		profile := fs.String("faults", "", "fault profile: churn, partitions, slownic, mixed, durable, leasecrash, overload (empty = rotate)")
		flightDir := fs.String("flightdir", "", "directory for flight-recorder auto-dumps (crash, violation, sim error)")
		return func(o *obs.Observer) (formatter, error) {
			return bench.RunChaos(*schedules, *seed, *profile, *flightDir, o)
		}
	}},
	{name: "reconfig", failure: "a scenario failed verification (see output)", flags: func(fs *flag.FlagSet) runFunc {
		scenario := fs.String("scenario", "", "scenario: scaleout, scalein, split, crash (empty = run all)")
		runs := fs.Int("runs", 1, "runs of a single scenario; run i uses seed+i (ignored when -scenario is empty)")
		seed := fs.Int64("seed", 1, "base seed")
		return func(o *obs.Observer) (formatter, error) { return bench.RunReconfig(*scenario, *runs, *seed, o) }
	}},
	{name: "recovery", failure: "recovery failed its gate: a leg not linearizable, checkpoint transfers not below full, write amplification or checkpoint recovery time over bound at the largest size, or the read path misbehaved (see output)", flags: func(fs *flag.FlagSet) runFunc {
		opts := bench.DefaultRecoveryOptions(1)
		fs.IntVar(&opts.Seeds, "seeds", opts.Seeds, "number of seeded crash→recover schedules; seed i uses seed+i")
		fs.Int64Var(&opts.Seed, "seed", opts.Seed, "base seed")
		keys := fs.String("keys", "", "comma-separated per-partition store sizes (default 16,64,256)")
		fs.IntVar(&opts.ValBytes, "valbytes", opts.ValBytes, "value padding in bytes")
		fs.StringVar(&opts.Preset, "preset", opts.Preset, "compression preset: snappy (default), zstd, none")
		return func(o *obs.Observer) (formatter, error) {
			if *keys != "" {
				ks, err := parseInts(*keys, "store size")
				if err != nil {
					return nil, err
				}
				opts.Keys = ks
			}
			opts.Obs = o
			return bench.RunRecovery(opts)
		}
	}},
	{name: "rebalance", failure: "rebalancing failed its gate: tails not improved or a history unsafe (see output)", flags: func(fs *flag.FlagSet) runFunc {
		scenario := fs.String("scenario", "", "bench scenario (hotshift, flash) or verify scenario (skew, scaleout, feedercrash, donorcrash); empty = run all")
		seed := fs.Int64("seed", 1, "workload seed")
		return func(o *obs.Observer) (formatter, error) { return bench.RunRebalanceSweep(*scenario, *seed, o) }
	}},
	{name: "lease", profile: true, failure: "lease fast path failed its gate: local read mean/p99, hit rate or margin under the ordered-read mean out of bounds (see output)", flags: func(fs *flag.FlagSet) runFunc {
		opts := bench.DefaultLeaseBenchOptions(1)
		fs.IntVar(&opts.Partitions, "partitions", opts.Partitions, "partitions")
		fs.IntVar(&opts.Replicas, "replicas", opts.Replicas, "replicas per partition")
		fs.IntVar(&opts.Keys, "keys", opts.Keys, "keys per partition")
		fs.IntVar(&opts.Clients, "clients", opts.Clients, "closed-loop clients")
		fs.IntVar(&opts.ReadPct, "readpct", opts.ReadPct, "read share of the mix in percent")
		window := fs.Duration("window", time.Duration(opts.Window), "measurement window of virtual time")
		fs.Int64Var(&opts.Seed, "seed", opts.Seed, "workload seed")
		return func(o *obs.Observer) (formatter, error) {
			opts.Window = sim.Duration(*window)
			// The two legs are separate simulations and cannot share an
			// observer; the flags observe the leg the subcommand is
			// about, leases on.
			opts.ObsOn = o
			return bench.RunLeaseBench(opts)
		}
	}},
	{name: "openloop", profile: true, flags: func(fs *flag.FlagSet) runFunc {
		opts := bench.DefaultOpenLoopOptions()
		fs.IntVar(&opts.Groups, "groups", opts.Groups, "ordering groups")
		fs.IntVar(&opts.Replicas, "replicas", opts.Replicas, "replicas per group")
		fs.IntVar(&opts.Clients, "clients", opts.Clients, "modeled open-loop client population")
		fs.Float64Var(&opts.RatePerClient, "rate", opts.RatePerClient, "mean submissions per client per second")
		fs.IntVar(&opts.PumpsPerGroup, "pumps", opts.PumpsPerGroup, "submission pumps per group")
		fs.IntVar(&opts.PayloadBytes, "payload", opts.PayloadBytes, "payload bytes per message")
		fs.IntVar(&opts.MultiGroupPct, "multi", opts.MultiGroupPct, "percent of submissions spanning two groups")
		fs.Float64Var(&opts.ZipfS, "zipf", opts.ZipfS, "zipf skew of key popularity (>1)")
		warmup := fs.Duration("warmup", time.Duration(opts.Warmup), "warmup of virtual time")
		window := fs.Duration("window", time.Duration(opts.Window), "measurement window of virtual time")
		fs.Int64Var(&opts.Seed, "seed", opts.Seed, "workload seed")
		fs.StringVar(&opts.FlightDir, "flightdir", "", "directory for the latency-outlier flight dump (max > 8x p99.9)")
		heatPath := fs.String("heat", "", "write the per-partition heat telemetry report to this JSON file (table printed to stderr)")
		return func(o *obs.Observer) (formatter, error) {
			opts.Warmup = sim.Duration(*warmup)
			opts.Window = sim.Duration(*window)
			var heat *obs.Heat
			if *heatPath != "" {
				// WithHeat copies o, so the tail's outputs are unchanged.
				heat = obs.NewHeat(opts.Groups, 100*sim.Microsecond, 8)
				o = obs.WithHeat(o, heat)
			}
			opts.Obs = o
			res, err := bench.RunOpenLoop(opts)
			if err != nil || heat == nil {
				return res, err
			}
			rep := heat.Report(sim.Time(res.VirtualNS))
			if err := writeJSON(*heatPath, rep); err != nil {
				return nil, err
			}
			fmt.Fprint(os.Stderr, rep.Format())
			fmt.Fprintf(os.Stderr, "[heat report written to %s]\n", *heatPath)
			return res, nil
		}
	}},
	{name: "trace", flags: func(fs *flag.FlagSet) runFunc {
		wh := fs.Int("wh", 4, "warehouses (= partitions)")
		clients := fs.Int("clients", 2, "closed-loop clients per partition (0 = one client over every warehouse)")
		requests := fs.Int("requests", 2000, "total requests to trace")
		seed := fs.Int64("seed", 1, "workload seed")
		workers := fs.Int("workers", 1, "execution workers per replica (>1 enables the parallel extension)")
		return func(o *obs.Observer) (formatter, error) {
			opt := bench.DefaultOptions(*wh)
			opt.ClientsPerPartition = *clients
			opt.Seed = *seed
			opt.ExecWorkers = *workers
			opt.Obs = o
			nClients := max(*clients**wh, 1)
			res, err := bench.RunRequests(opt, (*requests+nClients-1)/nClients)
			if err != nil {
				return nil, err
			}
			return traceRows(res.Rows), nil
		}
	}},
}

// traceRows is trace's result: its JSON is the bare row array, its
// table the CSV.
type traceRows []bench.Row

func (rows traceRows) Format() string {
	var b strings.Builder
	out := csv.NewWriter(&b)
	out.Write([]string{"kind", "partitions", "submit_ns", "total_ns", "ordering_ns", "coordination_ns", "execution_ns"})
	ns := func(d sim.Duration) string { return strconv.FormatInt(int64(d), 10) }
	for _, r := range rows {
		out.Write([]string{r.Kind, strconv.Itoa(r.Partitions), ns(sim.Duration(r.Submit)),
			ns(r.Total), ns(r.Ordering), ns(r.Coordination), ns(r.Execution)})
	}
	out.Flush()
	return b.String()
}

// runAll runs the figures and ablations back to back. It has no
// observability flags, and its -quick sizes are no subcommand's defaults.
func runAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	quick := fs.Bool("quick", false, "smaller configurations for a fast pass")
	windowFlag := fs.Duration("window", 0, "measurement window of virtual time (0 = default)")
	reqFlag := fs.Int("requests", 0, "requests per latency workload (0 = default)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	counts := []int{1, 2, 4, 8, 16}
	window := sim.Duration(0)
	requests := 400
	runs := 5
	if *quick {
		counts = []int{1, 2, 4}
		window = 60 * sim.Millisecond
		requests = 100
		runs = 2
	}
	if *windowFlag > 0 {
		window = sim.Duration(*windowFlag)
	}
	if *reqFlag > 0 {
		requests = *reqFlag
	}
	steps := []struct {
		name string
		fn   func() (formatter, error)
	}{
		{"fig4", func() (formatter, error) { return bench.RunFig4(counts, 0, window, nil) }},
		{"fig5", func() (formatter, error) { return bench.RunFig5(counts, window, nil) }},
		{"fig6", func() (formatter, error) { return bench.RunFig6("", requests, nil) }},
		{"fig7", func() (formatter, error) { return bench.RunFig7(4, requests, nil) }},
		{"table1", func() (formatter, error) { return bench.RunTable1(window, nil) }},
		{"fig8", func() (formatter, error) { return bench.RunFig8(runs, !*quick, nil) }},
		{"ablation", func() (formatter, error) { return bench.RunCutoffAblation(nil, 0, window, nil) }},
		{"workers", func() (formatter, error) { return bench.RunWorkerAblation(nil, 2, window, nil) }},
		{"fanout", func() (formatter, error) { return bench.RunFanout(nil, 0, 0, nil) }},
	}
	type stepResult struct {
		Step   string
		Result formatter
	}
	var collected []stepResult
	for _, step := range steps {
		t0 := time.Now()
		res, err := step.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", step.name, err)
		}
		if *asJSON {
			collected = append(collected, stepResult{Step: step.name, Result: res})
			fmt.Fprintf(os.Stderr, "[%s: %v wall time]\n", step.name, time.Since(t0).Round(time.Millisecond))
			continue
		}
		fmt.Printf("==================== %s ====================\n", step.name)
		fmt.Print(res.Format())
		fmt.Printf("[%s: %v wall time]\n\n", step.name, time.Since(t0).Round(time.Millisecond))
	}
	if *asJSON {
		b, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}
