package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// report is what `-workload all -out file` writes and `-compare` reads:
// every run's contract line, with the spans of the benchmark's own work.
type report struct {
	Scale float64     `json:"scale"`
	Runs  []reportRun `json:"runs"`
}

type reportRun struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Traced   bool            `json:"traced"`
	Result   contractLine    `json:"result"`
	Spans    json.RawMessage `json:"spans,omitempty"`
}

// runAll runs every workload of BENCHMARK.json, each run in a process
// of its own so that peak RSS and GC state are per run: cfg.runs
// untraced runs on consecutive seeds, then one traced run.
func runAll(cfg config, spec *benchSpec, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep := report{Scale: cfg.scale}
	code := 0
	for _, w := range spec.Workloads {
		for i := 0; i <= cfg.runs; i++ {
			run := reportRun{Workload: w.Name, Seed: cfg.seed + int64(i), Traced: i == cfg.runs}
			trace := "0"
			if run.Traced {
				run.Seed, trace = cfg.seed, "1"
			}
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(run.Seed),
				"-scale", fmt.Sprint(cfg.scale), "-trace", trace, "-spec", cfg.specPath)
			var out bytes.Buffer
			cmd.Stdout = io.MultiWriter(stdout, &out)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d trace %s: %v\n", w.Name, run.Seed, trace, err)
				code = 1
			}
			if err := run.parse(out.Bytes()); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d trace %s: %v\n", w.Name, run.Seed, trace, err)
				code = 1
				continue
			}
			rep.Runs = append(rep.Runs, run)
		}
	}
	if cfg.out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// parse reads a run's standard output: the spans line, and the
// contract line last.
func (r *reportRun) parse(out []byte) error {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, spansPrefix) {
			r.Spans = json.RawMessage(line[len(spansPrefix):])
		} else if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := json.Unmarshal([]byte(last), &r.Result); err != nil {
		return fmt.Errorf("last output line is no result: %w", err)
	}
	return nil
}

// compareReports prints one row per (workload, end-to-end metric) with
// both medians, their ratio, and a verdict against the metric's bound
// in BENCHMARK.json:
//
//	same        b is within the bound of a
//	worse       b is worse than a by more than the bound
//	better      b is better than a by more than the bound
//	unresolved  either side's own spread (interquartile range over its
//	            median, four runs or more) is wider than the bound
//
// When both files hold one run of the same seed, metrics on the virtual
// clock must also agree exactly; a difference is reported as `differs`.
// The exit code is 1 if any row is worse or differs.
func compareReports(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadReport(pathA)
	var b *report
	if err == nil {
		b, err = loadReport(pathB)
	}
	if err == nil && a.Scale != b.Scale {
		err = fmt.Errorf("reports were taken at different scales: %v and %v", a.Scale, b.Scale)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return printComparison(spec, a, b, stdout)
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values returns the untraced runs' values of one metric on one
// workload, and the seeds they ran on.
func (r *report) values(workload, metric string) (vals []float64, seeds []int64) {
	for _, run := range r.Runs {
		if run.Workload == workload && !run.Traced {
			if m, ok := run.Result.Metrics[metric]; ok {
				vals = append(vals, m.Value)
				seeds = append(seeds, run.Seed)
			}
		}
	}
	return vals, seeds
}

func printComparison(spec *benchSpec, a, b *report, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-15s %-20s %16s %16s %22s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, seedsA := a.values(wl.Name, m.Name)
			vb, seedsB := b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			verdict := verdictOf(m, ma, mb, math.Max(spread(va), spread(vb)))
			sameSeed := len(va) == 1 && len(vb) == 1 && seedsA[0] == seedsB[0]
			if sameSeed && clockOf(m.Name) == "virtual" && ma != mb {
				verdict = "differs"
			}
			if verdict == "worse" || verdict == "differs" {
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-20s %16.6g %16.6g %9.4f of %-10.6g  %s\n", wl.Name, m.Name, ma, mb, mb/ma, ma, verdict)
		}
	}
	return code
}

func verdictOf(m metricSpec, a, b, spread float64) string {
	worse := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "worse"
	case worse < -m.Bound:
		return "better"
	default:
		return "same"
	}
}

// spread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's
// statistics.quantiles(v, n=4) gives them. Fewer than four values have
// no meaningful quartiles and report no spread.
func spread(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 { // exclusive method: position k(n+1)/4, 1-based
		pos := float64(k*(len(s)+1)) / 4
		lo := int(math.Floor(pos))
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(3) - q(1)) / math.Abs(median(s))
}
