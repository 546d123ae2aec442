// Command benchmark is the repository's yardstick: six workloads, two
// clocks (virtual time of the modelled Heron, host time of the
// simulator), every layer. It measures the system from outside — it
// times calls into the layers' public functions, reads the public
// obs.Metrics / obs.CritPath surfaces on a separately traced leg, and
// buckets a runtime/pprof CPU profile by package — and it claims no
// gain. README.md beside this file explains every workload and metric.
//
//	go run ./benchmark --workload tpcc-4wh --seed 1 --seconds 8 --trace 0
//	go run ./benchmark --workload tpcc-4wh --seed 1 --seconds 8 --trace 1
//	go run ./benchmark -out a.json            # every workload, both legs
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// fullSeconds is the --seconds value at which every window has the size
// the workload table in README.md gives (scale 1, ≈20 s of host time per
// workload at the seed commit). All windows scale by seconds/fullSeconds.
const fullSeconds = 20.0

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's parsed command line.
type config struct {
	workload string
	seed     int64
	scale    float64
	trace    bool
	specPath string
	out      string
	runs     int
	// setupReps is the least number of timed set-ups per run; the smoke
	// test lowers it, the command line cannot.
	setupReps int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg     = config{setupReps: 3}
		seconds = fs.Float64("seconds", 8, "host seconds one run should measure for; scales every virtual window by seconds/20")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from an untraced and a traced leg")
		compare = fs.Bool("compare", false, "compare two report files: -compare a.json b.json")
	)
	fs.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: same seed, same inputs")
	fs.Float64Var(&cfg.scale, "scale", 0, "window scale, overriding -seconds (1 = full size)")
	fs.StringVar(&cfg.specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.StringVar(&cfg.out, "out", "", "with -workload all: write the report to this file")
	fs.IntVar(&cfg.runs, "runs", 1, "with -workload all: untraced runs per workload, on seeds seed..seed+runs-1")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.scale <= 0 {
		cfg.scale = *seconds / fullSeconds
	}
	cfg.trace = *trace != 0
	spec, err := loadSpec(cfg.specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two report files")
			return 2
		}
		return compareReports(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case cfg.scale <= 0 || math.IsNaN(cfg.scale):
		fmt.Fprintln(stderr, "benchmark: -seconds and -scale must be positive")
		return 2
	case cfg.workload == "all":
		return runAll(cfg, spec, stdout, stderr)
	}
	// One P: a simulation is one logical thread handing control between
	// goroutines. With more Ps every hand-off wakes a parked OS thread,
	// which on a 2-core VM costs 1.3-2x the host time at +-20 % run to
	// run; with one P the same run repeats within a few percent. The
	// machine's core count then no longer enters the result either.
	runtime.GOMAXPROCS(1)
	res, err := runOne(cfg, spec, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res.contract(spec, cfg.trace))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is everything one invocation measured. EndToEnd always holds
// the untraced leg's metrics; PerLayer is filled on a traced invocation.
type result struct {
	Correct bool
	// Reasons says why the run is not correct.
	Reasons   []string
	Attempted int
	Failed    int
	EndToEnd  map[string]float64
	PerLayer  map[string]float64
	// Samples counts the latency samples behind each percentile family.
	Samples map[string]int
	// ProfileSamples is the number of CPU-profile samples bucketed into
	// the <layer>.host_cpu_share metrics.
	ProfileSamples int64
	Spans          []span
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) contract(spec *benchSpec, traced bool) contractLine {
	decl, vals := spec.EndToEnd, r.EndToEnd
	if traced {
		decl, vals = spec.PerLayer, r.PerLayer
	}
	out := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(decl))}
	for _, m := range decl {
		out.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}

// runOne runs one workload once: the untraced leg, on a traced
// invocation the traced leg and the layer probes, then set-up timing. A
// correctness failure is reported in the result, not as an error.
func runOne(cfg config, spec *benchSpec, stdout io.Writer) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok || !spec.hasWorkload(cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(spec.workloadNames(), ", "))
	}
	spans := newSpanLog()
	root := spans.begin(-1, cfg.workload)

	id := spans.begin(root, "untraced-leg")
	plain, err := wl.run(&leg{cfg: cfg, spans: spans, parent: id})
	spans.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced leg: %w", cfg.workload, err)
	}
	res := &result{
		Correct:   true,
		Attempted: plain.attempted,
		Failed:    plain.failed,
		EndToEnd:  plain.endToEnd(),
		Samples:   plain.samples,
	}
	if plain.check != nil {
		res.fail(plain.check.Error())
	}
	if cfg.trace {
		if err := tracedLeg(cfg, spec, wl, plain, res, spans, root); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
	}
	// Set-ups are timed after the legs: sim.Proc goroutines of an
	// abandoned deployment are never collected, so set-ups before the
	// untraced leg would be counted in its peak RSS.
	id = spans.begin(root, "setup")
	res.EndToEnd["setup_s"], err = timeSetup(wl, cfg)
	spans.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	spans.end(root)
	res.Spans = spans.spans

	if err := spec.checkNames(res.EndToEnd, spec.EndToEnd); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := spec.checkNames(res.PerLayer, spec.PerLayer); err != nil {
			return nil, err
		}
	}
	printResult(stdout, cfg, spec, res)
	return res, nil
}

func (r *result) fail(reason string) {
	r.Correct = false
	r.Reasons = append(r.Reasons, reason)
}

// timeSetup times the workload's set-up several times and returns the
// median in seconds: at least cfg.setupReps times, and more while the
// total stays under a second, so that millisecond set-ups are not
// decided by one scheduling hiccup. A traced invocation does not report
// set-up time and times it once.
func timeSetup(wl *workload, cfg config) (float64, error) {
	reps, budget := cfg.setupReps, time.Second
	if cfg.trace {
		reps, budget = 1, 0
	}
	var times []float64
	var total time.Duration
	for len(times) < reps || (total < budget && len(times) < 25) {
		releaseMemory()
		t0 := time.Now()
		if err := wl.setup(cfg); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	releaseMemory()
	return median(times), nil
}

// releaseMemory returns freed heap to the OS so that one phase's garbage
// is not counted in the next phase's peak RSS.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printResult prints every metric by name with its unit, direction and
// clock, the sample counts, and the benchmark's own spans.
func printResult(w io.Writer, cfg config, spec *benchSpec, r *result) {
	fmt.Fprintf(w, "workload %s  seed %d  scale %.4g  traced %v\n", cfg.workload, cfg.seed, cfg.scale, cfg.trace)
	for _, reason := range r.Reasons {
		fmt.Fprintf(w, "INCORRECT: %s\n", reason)
	}
	row := func(m metricSpec, v float64) {
		fmt.Fprintf(w, "  %-36s %18.6f %-8s %-6s %s\n", m.Name, v, m.Unit, m.Better, clockOf(m.Name))
	}
	for _, m := range spec.EndToEnd {
		row(m, r.EndToEnd[m.Name])
	}
	if r.PerLayer != nil {
		for _, m := range spec.PerLayer {
			row(m, r.PerLayer[m.Name])
		}
		fmt.Fprintf(w, "  cpu profile samples: %d\n", r.ProfileSamples)
	}
	names := make([]string, 0, len(r.Samples))
	for n := range r.Samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  samples behind %-22s %d\n", n, r.Samples[n])
	}
	for _, s := range r.Spans {
		fmt.Fprintf(w, "  span %2d <- %2d  %-22s %10.3f ms .. %10.3f ms\n", s.ID, s.Parent, s.Name,
			float64(s.StartNS)/1e6, float64(s.EndNS)/1e6)
	}
	if b, err := json.Marshal(r.Spans); err == nil {
		fmt.Fprintf(w, "%s%s\n", spansPrefix, b)
	}
}

// spansPrefix marks the line that carries the spans as JSON, which
// runAll copies into the report.
const spansPrefix = "spans-json "

// clockOf names the clock a metric is read on: host time or memory
// (noisy), or virtual — a time, count or share that derives from
// virtual state alone and repeats exactly for a seed.
func clockOf(name string) string {
	layer, base, _ := strings.Cut(name, ".")
	if base == "" {
		layer, base = "", name
	}
	if strings.HasPrefix(base, "host_") || base == "setup_s" || layer == "goruntime" || name == "obs.trace_overhead_share" {
		return "host"
	}
	return "virtual"
}

// span is one interval of the benchmark's own work, on the host clock,
// in nanoseconds since the process's first span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(parent int, name string) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(l.t0))})
	return id
}

func (l *spanLog) end(id int) { l.spans[id].EndNS = int64(time.Since(l.t0)) }

// timed runs fn inside a child span of parent.
func (l *spanLog) timed(parent int, name string, fn func() error) error {
	id := l.begin(parent, name)
	defer l.end(id)
	return fn()
}
