package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"heron/internal/chaos"
	"heron/internal/persist"
	"heron/internal/rebalance"
	"heron/internal/sim"
	"heron/internal/tpcc"
)

// updateGolden regenerates testdata/golden_*.json. The committed files
// hold every later commit to the virtual-time results of the one that
// generated them (commit-on-receipt and per-ring bursts moved every
// latency, as the one-doorbell ring had; the address prefetch moved
// golden_heron_tpcc.json alone, and the merged coordination word moved it
// and golden_heron_null.json): regenerate only for a change that is meant
// to move virtual-time results, in a commit of its own that says which
// fields moved.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.json from this run")

// heronDigest is everything a HeronRun measured, in recording order.
type heronDigest struct {
	Completed      int
	Throughput     float64
	StateTransfers uint64
	Latency        []sim.Duration
	Single         []sim.Duration
	Multi          []sim.Duration
	ByKind         map[string][]sim.Duration
}

func digestHeron(r *HeronRun) heronDigest {
	d := heronDigest{
		Completed:      r.Completed,
		Throughput:     r.Throughput,
		StateTransfers: r.StateTransfers,
		Latency:        r.Latency.Samples(),
		Single:         r.LatencySingle.Samples(),
		Multi:          r.LatencyMulti.Samples(),
		ByKind:         make(map[string][]sim.Duration),
	}
	kinds := make([]int, 0, len(r.LatencyByKind))
	for k := range r.LatencyByKind {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		d.ByKind[tpcc.TxnKind(k).String()] = r.LatencyByKind[tpcc.TxnKind(k)].Samples()
	}
	return d
}

func goldenHeron(t *testing.T, null bool) any {
	opt := DefaultOptions(2)
	opt.Warmup = 2 * sim.Millisecond
	opt.Window = 6 * sim.Millisecond
	opt.NullRequests = null
	opt.Seed = 5
	r, err := RunHeron(opt)
	if err != nil {
		t.Fatal(err)
	}
	return digestHeron(r)
}

// TestGoldenResults compares the full result of a small run of each
// harness the benchmark drives with the file generated on the parent
// kernel: same seed, same virtual-time outcome, sample for sample.
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) any
	}{
		{"heron_null", func(t *testing.T) any { return goldenHeron(t, true) }},
		{"heron_tpcc", func(t *testing.T) any { return goldenHeron(t, false) }},
		{"chaos_durable", func(t *testing.T) any {
			opt := chaos.DefaultOptions()
			opt.Keys = 64
			sc, err := chaos.Generate("durable", 3, opt.Partitions, opt.Replicas)
			if err != nil {
				t.Fatal(err)
			}
			opt.Schedule = sc
			opt.Persist = &persist.Options{}
			rep, err := chaos.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}},
		{"lease", func(t *testing.T) any {
			res, err := RunLeaseBench(smallLeaseBench())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"openloop", func(t *testing.T) any { return goldenOpenLoop(t) }},
		// The message-passing baseline's cost model (Fig. 5).
		{"dynastar", func(t *testing.T) any {
			var runs []heronDigest
			for _, wh := range []int{1, 2} {
				opt := DefaultOptions(wh)
				opt.ClientsPerPartition = 12
				opt.Warmup = 2 * sim.Millisecond
				opt.Window = 10 * sim.Millisecond
				opt.Seed = 5
				r, err := RunDynaStar(opt)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, digestHeron(r))
			}
			return runs
		}},
		// Both recovery legs and the LSM read microbench.
		{"recovery", func(t *testing.T) any {
			o := DefaultRecoveryOptions(1)
			o.Seeds = 1
			o.Keys = []int{64}
			res, err := RunRecovery(o)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		// The ordering layer's state installs: reshapes and joiner
		// restores (every reconfig scenario), view-change adoption and
		// resync (one chaos schedule per profile).
		{"reconfig", func(t *testing.T) any {
			res, err := RunReconfig("", 1, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"chaos_sweep", func(t *testing.T) any {
			res, err := RunChaos(6, 1, "", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		// Every profile at two seeds, plus the faults-durable shape, so
		// that where a run stops is pinned by what it reports.
		{"chaos_profiles", func(t *testing.T) any { return goldenChaosProfiles(t) }},
		// The rebalance bench pair and every verification scenario.
		{"rebalance", func(t *testing.T) any {
			res, err := RunRebalance(smallRebalance(BenchHotShift))
			if err != nil {
				t.Fatal(err)
			}
			sweep := &RebalanceSweep{Bench: []*RebalanceResult{res}}
			for _, sc := range rebalance.Scenarios {
				rep, err := rebalance.Run(rebalance.Options{Scenario: sc, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				sweep.Verify = append(sweep.Verify, rep)
			}
			return sweep
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := json.MarshalIndent(c.run(t), "", " ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden_"+c.name+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s differs from the golden result (run with -update-golden and diff to see where):\n%s", path, got)
			}
		})
	}
}

// goldenChaosProfiles runs chaos.Run for every profile at seeds 2 and
// 12, sized as RunChaos sizes them, then the durable profile at seed 1
// over 256 keys of 256 B (the faults-durable workload's store).
func goldenChaosProfiles(t *testing.T) []*chaos.Report {
	var reps []*chaos.Report
	for _, seed := range []int64{2, 12} {
		for _, prof := range chaos.Profiles {
			res, err := RunChaos(1, seed, prof, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, res.Schedules...)
		}
	}
	opt := chaos.DefaultOptions()
	opt.Keys, opt.ValBytes = 256, 256
	opt.Persist = &persist.Options{}
	sc, err := chaos.Generate("durable", 1, opt.Partitions, opt.Replicas)
	if err != nil {
		t.Fatal(err)
	}
	opt.Schedule = sc
	rep, err := chaos.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return append(reps, rep)
}

// goldenOpenLoop blanks the kernel's own counters: how many events a run
// took is the kernel's business, what was delivered when is not.
func goldenOpenLoop(t *testing.T) any {
	res, err := RunOpenLoop(smallOpenLoop())
	if err != nil {
		t.Fatal(err)
	}
	res.Events, res.VirtualNS = 0, 0
	return res
}
