// Command heron-bench regenerates the tables and figures of the Heron
// paper's evaluation (Section V) on the simulated RDMA fabric.
//
// Usage:
//
//	heron-bench fig4    [-wh 1,2,4,8,16] [-clients 6] [-window 150ms]
//	heron-bench fig5    [-wh 1,2,4,8,16] [-window 150ms]
//	heron-bench fig6    [-requests 400]
//	heron-bench fig7    [-wh 4] [-requests 400]
//	heron-bench fig8    [-runs 5] [-full]
//	heron-bench table1  [-window 150ms]
//	heron-bench ablation
//	heron-bench fanout  [-sizes 1,2,4,8,16,32] [-targets 4] [-slot 96]
//	heron-bench chaos   [-schedules 5] [-seed 1] [-faults churn] [-flightdir d]
//	heron-bench reconfig [-scenario split] [-runs 1] [-seed 1]
//	heron-bench recovery [-seeds 2] [-seed 1]
//	heron-bench rebalance [-scenario hotshift|flash|skew|scaleout|feedercrash|donorcrash] [-seed 1]
//	heron-bench lease   [-partitions 2] [-replicas 3] [-clients 24] [-readpct 95] [-window 20ms] [-seed 1]
//	heron-bench lsm     [-keys 16,64,256] [-valbytes 256] [-preset snappy|zstd|none] [-seed 1]
//	heron-bench openloop [-groups 4] [-replicas 3] [-clients 100000]
//	                     [-rate 10] [-arrival poisson|pareto] [-shape steady|diurnal|flash]
//	                     [-mix update|ycsb-b|ycsb-c] [-window 20ms] [-seed 1]
//	                     [-heat out.json] [-flightdir d] [-rebalance]
//	heron-bench all     [-quick]
//
// Every subcommand accepts -json to emit machine-readable results instead
// of the formatted table, for experiment runners and trajectory tracking.
// The figure subcommands (fig4-fig7, fanout) also accept -trace out.json
// to write a Chrome trace_event file of the run's virtual-time spans
// (load it at ui.perfetto.dev) and -metrics to print an instrument
// snapshot after the run. Subcommands with a request path additionally
// accept -profile out.json to write the causal critical-path attribution
// profile (formatted table to stderr) and -slowest N to bound its
// outlier list; openloop's -heat writes per-partition heat telemetry,
// and -flightdir on openloop/chaos arms the always-on flight recorder
// (crashes and p99.9 latency outliers auto-dump a Perfetto-loadable
// ring of recent protocol events). Each subcommand prints the same
// rows/series the paper reports; see EXPERIMENTS.md for
// paper-vs-measured notes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"heron/internal/bench"
	"heron/internal/obs"
	"heron/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	start := time.Now()
	var err error
	switch cmd {
	case "fig4":
		err = runFig4(args)
	case "fig5":
		err = runFig5(args)
	case "fig6":
		err = runFig6(args)
	case "fig7":
		err = runFig7(args)
	case "fig8":
		err = runFig8(args)
	case "table1":
		err = runTable1(args)
	case "ablation":
		err = runAblation(args)
	case "workers":
		err = runWorkers(args)
	case "fanout":
		err = runFanout(args)
	case "chaos":
		err = runChaosCmd(args)
	case "reconfig":
		err = runReconfigCmd(args)
	case "recovery":
		err = runRecoveryCmd(args)
	case "rebalance":
		err = runRebalanceCmd(args)
	case "lease":
		err = runLeaseCmd(args)
	case "lsm":
		err = runLSMCmd(args)
	case "openloop":
		err = runOpenLoopCmd(args)
	case "all":
		err = runAll(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "heron-bench %s: %v\n", cmd, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[%s completed in %v wall time]\n", cmd, time.Since(start).Round(time.Millisecond))
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: heron-bench {fig4|fig5|fig6|fig7|fig8|table1|ablation|workers|fanout|chaos|reconfig|recovery|rebalance|lease|lsm|openloop|all} [flags] [-json]")
}

// formatter is any experiment result renderable as a text table.
type formatter interface{ Format() string }

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

// parseWH parses a comma-separated warehouse list.
func parseWH(s string) ([]int, error) { return parseInts(s, "warehouse count") }

// obsOpts carries a subcommand's -trace/-metrics/-profile flags.
type obsOpts struct {
	trace   *string
	metrics *bool
	profile *string
	slowest *int
}

// addObsFlags registers the observability flags on a subcommand.
func addObsFlags(fs *flag.FlagSet) *obsOpts {
	return &obsOpts{
		trace:   fs.String("trace", "", "write a Chrome trace_event JSON file (load at ui.perfetto.dev)"),
		metrics: fs.Bool("metrics", false, "print a metrics snapshot after the run"),
		profile: fs.String("profile", "", "write the critical-path latency-attribution profile to this JSON file (table printed to stderr)"),
		slowest: fs.Int("slowest", 5, "slowest requests to break down in the -profile output"),
	}
}

// observer builds the observer the flags imply; nil when all are off, so
// the benchmarks stay on the zero-cost disabled path.
func (oo *obsOpts) observer() *obs.Observer {
	var tr *obs.Tracer
	var m *obs.Metrics
	var cp *obs.CritPath
	if *oo.trace != "" {
		tr = obs.NewTracer()
	}
	if *oo.metrics {
		m = obs.NewMetrics()
	}
	if *oo.profile != "" {
		cp = obs.NewCritPath(1)
	}
	return obs.NewFull(tr, m, cp, nil, nil)
}

// finish writes the trace file, the critical-path profile, and the
// metrics snapshot, as requested by the flags. Tables go to stderr so
// they never corrupt -json output on stdout.
func (oo *obsOpts) finish(o *obs.Observer) error {
	if o == nil {
		return nil
	}
	if *oo.trace != "" {
		f, err := os.Create(*oo.trace)
		if err != nil {
			return err
		}
		if err := o.Tracer().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[trace written to %s]\n", *oo.trace)
	}
	if *oo.profile != "" {
		p := o.CritPath().Profile(*oo.slowest)
		f, err := os.Create(*oo.profile)
		if err != nil {
			return err
		}
		if err := p.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, p.Format())
		fmt.Fprintf(os.Stderr, "[profile written to %s]\n", *oo.profile)
	}
	if *oo.metrics {
		fmt.Fprint(os.Stderr, o.Metrics().Snapshot(0).Format())
	}
	return nil
}

func runFig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ExitOnError)
	wh := fs.String("wh", "1,2,4,8,16", "comma-separated warehouse counts")
	clients := fs.Int("clients", 0, "clients per partition (0 = default)")
	window := fs.Duration("window", 0, "measurement window of virtual time (0 = default)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	counts, err := parseWH(*wh)
	if err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunFig4(counts, *clients, sim.Duration(*window), o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	return emit(res, *asJSON)
}

func runFig5(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	wh := fs.String("wh", "1,2,4,8,16", "comma-separated warehouse counts")
	window := fs.Duration("window", 0, "measurement window of virtual time (0 = default)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	counts, err := parseWH(*wh)
	if err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunFig5(counts, sim.Duration(*window), o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	return emit(res, *asJSON)
}

func runFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	requests := fs.Int("requests", 400, "requests per workload")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunFig6(*requests, o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	return emit(res, *asJSON)
}

func runFig7(args []string) error {
	fs := flag.NewFlagSet("fig7", flag.ExitOnError)
	wh := fs.Int("wh", 4, "warehouses")
	requests := fs.Int("requests", 400, "requests per transaction type")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunFig7(*wh, *requests, o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	return emit(res, *asJSON)
}

func runFig8(args []string) error {
	fs := flag.NewFlagSet("fig8", flag.ExitOnError)
	runs := fs.Int("runs", 5, "repetitions per configuration")
	full := fs.Bool("full", false, "also recover a full-scale TPCC warehouse (uses ~400MB RAM)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunFig8(*runs, *full, o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	return emit(res, *asJSON)
}

func runTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	window := fs.Duration("window", 0, "measurement window of virtual time (0 = default)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunTable1(sim.Duration(*window), o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	return emit(res, *asJSON)
}

func runAblation(args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunCutoffAblation(nil, 0, 0, o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	return emit(res, *asJSON)
}

func runWorkers(args []string) error {
	fs := flag.NewFlagSet("workers", flag.ExitOnError)
	wh := fs.Int("wh", 2, "warehouses")
	window := fs.Duration("window", 0, "measurement window of virtual time (0 = default)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunWorkerAblation(nil, *wh, sim.Duration(*window), o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	return emit(res, *asJSON)
}

func runFanout(args []string) error {
	fs := flag.NewFlagSet("fanout", flag.ExitOnError)
	sizes := fs.String("sizes", "1,2,4,8,16,32", "comma-separated read-set sizes")
	targets := fs.Int("targets", 4, "target nodes to stripe objects over")
	slot := fs.Int("slot", 0, "slot size in bytes (0 = dual-version slot of a 32-byte object)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ks, err := parseInts(*sizes, "read-set size")
	if err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunFanout(ks, *targets, *slot, o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	return emit(res, *asJSON)
}

func runChaosCmd(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	schedules := fs.Int("schedules", 5, "number of seeded fault schedules to sweep")
	seed := fs.Int64("seed", 1, "base seed; schedule i uses seed+i")
	profile := fs.String("faults", "", "fault profile: churn, partitions, slownic, mixed, overload (empty = rotate)")
	flightDir := fs.String("flightdir", "", "directory for flight-recorder auto-dumps (crash, violation, sim error)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunChaos(*schedules, *seed, *profile, *flightDir, o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	if err := emit(res, *asJSON); err != nil {
		return err
	}
	if !res.AllLinearizable() {
		return fmt.Errorf("a schedule failed verification (see output)")
	}
	return nil
}

func runReconfigCmd(args []string) error {
	fs := flag.NewFlagSet("reconfig", flag.ExitOnError)
	scenario := fs.String("scenario", "", "scenario: scaleout, scalein, split, crash (empty = run all)")
	runs := fs.Int("runs", 1, "runs of a single scenario; run i uses seed+i (ignored when -scenario is empty)")
	seed := fs.Int64("seed", 1, "base seed")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunReconfig(*scenario, *runs, *seed, o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	if err := emit(res, *asJSON); err != nil {
		return err
	}
	if !res.AllConverged() {
		return fmt.Errorf("a scenario failed verification (see output)")
	}
	return nil
}

func runRecoveryCmd(args []string) error {
	fs := flag.NewFlagSet("recovery", flag.ExitOnError)
	seeds := fs.Int("seeds", 2, "number of seeded crash→recover schedules; seed i uses seed+i")
	seed := fs.Int64("seed", 1, "base seed")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunRecovery(*seeds, *seed, o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	if err := emit(res, *asJSON); err != nil {
		return err
	}
	if !res.CheckpointWins() {
		return fmt.Errorf("checkpoint recovery did not beat the full-transfer baseline (see output)")
	}
	return nil
}

func runRebalanceCmd(args []string) error {
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	scenario := fs.String("scenario", "", "bench scenario (hotshift, flash) or verify scenario (skew, scaleout, feedercrash, donorcrash); empty = run all")
	seed := fs.Int64("seed", 1, "workload seed")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON (byte-identical across replays)")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := oo.observer()
	res, err := bench.RunRebalanceSweep(*scenario, *seed, o)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	if err := emit(res, *asJSON); err != nil {
		return err
	}
	if !res.Gate() {
		return fmt.Errorf("rebalancing failed its gate: tails not improved or a history unsafe (see output)")
	}
	return nil
}

func runLeaseCmd(args []string) error {
	fs := flag.NewFlagSet("lease", flag.ExitOnError)
	opts := bench.DefaultLeaseBenchOptions(1)
	fs.IntVar(&opts.Partitions, "partitions", opts.Partitions, "partitions")
	fs.IntVar(&opts.Replicas, "replicas", opts.Replicas, "replicas per partition")
	fs.IntVar(&opts.Keys, "keys", opts.Keys, "keys per partition")
	fs.IntVar(&opts.Clients, "clients", opts.Clients, "closed-loop clients")
	fs.IntVar(&opts.ReadPct, "readpct", opts.ReadPct, "read share of the mix in percent")
	window := fs.Duration("window", time.Duration(opts.Window), "measurement window of virtual time")
	fs.Int64Var(&opts.Seed, "seed", opts.Seed, "workload seed")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON (byte-identical across replays)")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts.Window = sim.Duration(*window)
	// The two legs are separate simulations and cannot share an observer;
	// the flags observe the leg the subcommand is about, leases on.
	o := oo.observer()
	opts.ObsOn = o
	res, err := bench.RunLeaseBench(opts)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	if err := emit(res, *asJSON); err != nil {
		return err
	}
	if !res.Gate() {
		return fmt.Errorf("lease fast path failed its gate: local read mean/p99, hit rate or margin under the ordered-read mean out of bounds (see output)")
	}
	return nil
}

func runLSMCmd(args []string) error {
	fs := flag.NewFlagSet("lsm", flag.ExitOnError)
	opts := bench.DefaultLSMBenchOptions(1)
	keys := fs.String("keys", "", "comma-separated per-partition store sizes (default 16,64,256)")
	fs.IntVar(&opts.ValBytes, "valbytes", opts.ValBytes, "value padding in bytes")
	fs.StringVar(&opts.Preset, "preset", opts.Preset, "compression preset: snappy (default), zstd, none")
	fs.Int64Var(&opts.Seed, "seed", opts.Seed, "fault-schedule seed")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON (byte-identical across replays)")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keys != "" {
		ks, err := parseInts(*keys, "store size")
		if err != nil {
			return err
		}
		opts.Keys = ks
	}
	o := oo.observer()
	opts.Obs = o
	res, err := bench.RunLSMBench(opts)
	if err != nil {
		return err
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	if err := emit(res, *asJSON); err != nil {
		return err
	}
	if !res.Gate() {
		return fmt.Errorf("lsm engine failed its gate: flat beat it on write-amp or recovery at the largest store size, or the read path misbehaved (see output)")
	}
	return nil
}

func runOpenLoopCmd(args []string) error {
	fs := flag.NewFlagSet("openloop", flag.ExitOnError)
	opts := bench.DefaultOpenLoopOptions()
	fs.IntVar(&opts.Groups, "groups", opts.Groups, "ordering groups")
	fs.IntVar(&opts.Replicas, "replicas", opts.Replicas, "replicas per group")
	fs.IntVar(&opts.Clients, "clients", opts.Clients, "modeled open-loop client population")
	fs.Float64Var(&opts.RatePerClient, "rate", opts.RatePerClient, "mean submissions per client per second")
	fs.IntVar(&opts.PumpsPerGroup, "pumps", opts.PumpsPerGroup, "submission pumps per group")
	fs.IntVar(&opts.PayloadBytes, "payload", opts.PayloadBytes, "payload bytes per message")
	fs.IntVar(&opts.MultiGroupPct, "multi", opts.MultiGroupPct, "percent of submissions spanning two groups")
	fs.Float64Var(&opts.ZipfS, "zipf", opts.ZipfS, "zipf skew of key popularity (>1)")
	fs.StringVar(&opts.Arrival, "arrival", opts.Arrival, "interarrival law: poisson or pareto")
	fs.StringVar(&opts.Shape, "shape", opts.Shape, "rate shape: steady, diurnal, or flash")
	fs.StringVar(&opts.Mix, "mix", opts.Mix, "operation mix: update (default), ycsb-b (95/5 reads), ycsb-c (read-only)")
	warmup := fs.Duration("warmup", time.Duration(opts.Warmup), "warmup of virtual time")
	window := fs.Duration("window", time.Duration(opts.Window), "measurement window of virtual time")
	fs.Int64Var(&opts.Seed, "seed", opts.Seed, "workload seed")
	fs.StringVar(&opts.FlightDir, "flightdir", "", "directory for the latency-outlier flight dump (max > 8x p99.9)")
	fs.BoolVar(&opts.Rebalance, "rebalance", false, "replay the heat series through the shadow rebalance planner (advisory decisions in the result)")
	heatPath := fs.String("heat", "", "write the per-partition heat telemetry report to this JSON file (table printed to stderr)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON (byte-identical across replays)")
	oo := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts.Warmup = sim.Duration(*warmup)
	opts.Window = sim.Duration(*window)
	o := oo.observer()
	var heat *obs.Heat
	if *heatPath != "" {
		heat = obs.NewHeat(opts.Groups, 100*sim.Microsecond, 8)
		o = obs.NewFull(o.Tracer(), o.Metrics(), o.CritPath(), heat, o.Flight())
	}
	opts.Obs = o
	res, err := bench.RunOpenLoop(opts)
	if err != nil {
		return err
	}
	if *heatPath != "" {
		rep := heat.Report(sim.Time(res.VirtualNS))
		f, err := os.Create(*heatPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, rep.Format())
		fmt.Fprintf(os.Stderr, "[heat report written to %s]\n", *heatPath)
	}
	if err := oo.finish(o); err != nil {
		return err
	}
	return emit(res, *asJSON)
}

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
		{"fig6", func() (formatter, error) { return bench.RunFig6(requests, nil) }},
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
