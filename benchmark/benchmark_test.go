package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"heron/internal/bench"
	"heron/internal/sim"
)

const specPath = "../BENCHMARK.json"

// TestMain pins one P, as the command does before it runs a workload.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

// TestSmoke runs every workload, traced, at a hundredth of full size and
// checks the shape of what it reports against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{workload: w.Name, seed: 1, scale: 0.01, trace: true, specPath: specPath, setupReps: 1}
			res, err := runOne(cfg, spec, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v (%v), %d of %d failed", res.Correct, res.Reasons, res.Failed, res.Attempted)
			}
			// runOne has checked that both metric sets are exactly the
			// declared ones, finite and well named. End-to-end metrics
			// must also never be zero: bounds are shares of a median.
			for _, m := range spec.EndToEnd {
				if res.EndToEnd[m.Name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, res.EndToEnd[m.Name])
				}
			}
			var cpu float64
			for _, l := range cpuLayers {
				cpu += res.PerLayer[l+".host_cpu_share"]
			}
			if res.ProfileSamples > 0 && math.Abs(cpu-1) > 0.01 {
				t.Errorf("per-layer CPU shares sum to %v over %d samples, want 1", cpu, res.ProfileSamples)
			}
			if ns := res.PerLayer["obs.critpath_residual_ns"]; ns != 0 {
				t.Errorf("CritPath residual %v ns, want 0", ns)
			}
		})
	}
}

// TestLeaseMatchesBench checks that the kv-lease-rw driver, which
// repeats bench.RunLeaseBench to keep its legs' observers apart, still
// is that workload: same seed, same virtual-time results.
func TestLeaseMatchesBench(t *testing.T) {
	cfg := config{seed: 7, scale: 0.01}
	res, err := runLease(&leg{cfg: cfg, spans: newSpanLog()})
	if err != nil {
		t.Fatal(err)
	}
	opt := bench.DefaultLeaseBenchOptions(cfg.seed)
	opt.Warmup, opt.Window = cfg.warmup(), cfg.scaled(leaseWindow)
	want, err := bench.RunLeaseBench(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  float64
		want int64 // ns
	}{
		{"read p50", res.v["v_read_lat_p50_us"], want.On.ReadP50NS},
		{"read p99", res.v["v_read_lat_p99_us"], want.On.ReadP99NS},
		{"update p99", res.v["v_update_lat_p99_us"], want.On.UpdateP99NS},
		{"ordered read p50", res.layer["lease.v_ordered_read_p50_us"], want.Off.ReadP50NS},
	} {
		if c.got != us(sim.Duration(c.want)) {
			t.Errorf("%s is %v us, bench.RunLeaseBench has %v", c.name, c.got, us(sim.Duration(c.want)))
		}
	}
	if got, want := res.layer["lease.grants"], float64(want.On.Grants); got != want {
		t.Errorf("%v grants, bench.RunLeaseBench has %v", got, want)
	}
	if got, want := res.attempted, want.Off.Ops+want.On.Ops; got != want {
		t.Errorf("attempted %d operations, bench.RunLeaseBench %d", got, want)
	}
}

// pb hand-encodes protobuf messages for the canned profile.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) *pb {
	p.Write(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(field)<<3), v))
	return p
}

func (p *pb) bytes(field int, b []byte) *pb {
	p.Write(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(field)<<3|2), uint64(len(b))))
	p.Write(b)
	return p
}

func (p *pb) packed(field int, vs ...uint64) *pb {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return p.bytes(field, b)
}

func TestCPUSharesOnCannedProfile(t *testing.T) {
	funcs := []string{"", // string 0 is always empty
		"runtime.chansend",
		"heron/internal/sim.(*Proc).doYield",
		"heron/internal/core.(*Replica).execute",
		"heron/internal/wire.(*Writer).U64",
		"runtime.gcBgMarkWorker",
		"main.(closedLoop).build.func1",
		"heron/internal/store.(*Store).Set",
	}
	var prof pb
	for i, name := range funcs {
		prof.bytes(6, []byte(name))
		if i > 0 { // function i and location i share the string's index
			prof.bytes(5, new(pb).varint(1, uint64(i)).varint(2, uint64(i)).Bytes())
			prof.bytes(4, new(pb).varint(1, uint64(i)).bytes(4, new(pb).varint(1, uint64(i)).Bytes()).Bytes())
		}
	}
	// Location 8 is store.Set inlined into core.execute: innermost first.
	prof.bytes(4, new(pb).varint(1, 8).
		bytes(4, new(pb).varint(1, 7).Bytes()).
		bytes(4, new(pb).varint(1, 3).Bytes()).Bytes())
	sample := func(count uint64, stack ...uint64) {
		prof.bytes(2, new(pb).packed(1, stack...).packed(2, count, count*10_000_000).Bytes())
	}
	sample(5, 1, 2, 3) // runtime under sim under core: sim's self time
	sample(2, 4, 3, 6) // wire belongs to its caller: core
	sample(1, 5)       // no owned frame: goruntime
	sample(1, 1, 6)    // runtime under this program: bench
	sample(1, 8, 6)    // inlined store.Set: store, not the core frame it sits in

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	shares, samples, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples != 10 {
		t.Errorf("%d samples, want 10", samples)
	}
	want := map[string]float64{"sim": 0.5, "core": 0.2, "goruntime": 0.1, "bench": 0.1, "store": 0.1}
	for _, l := range cpuLayers {
		if shares[l] != want[l] {
			t.Errorf("%s share %v, want %v", l, shares[l], want[l])
		}
	}
	if _, _, err := cpuShares(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("half a profile decoded without error")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "v_lat_p50_us", Better: "lower", Bound: 0.05}
	higher := metricSpec{Name: "v_tput_rps", Better: "higher", Bound: 0.05}
	for _, c := range []struct {
		m            metricSpec
		a, b, spread float64
		want         string
	}{
		{lower, 100, 104, 0, "same"},
		{lower, 100, 106, 0, "worse"},
		{lower, 100, 94, 0, "better"},
		{higher, 100, 94, 0, "worse"},
		{higher, 100, 106, 0, "better"},
		{lower, 100, 150, 0.06, "unresolved"},
	} {
		if got := verdictOf(c.m, c.a, c.b, c.spread); got != c.want {
			t.Errorf("%s %v -> %v spread %v: %s, want %s", c.m.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := spread([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}); got != 1 {
		t.Errorf("spread of 1..10 is %v, want (8.25-2.75)/5.5 = 1", got)
	}

	run := func(seed int64, tput, lat float64) reportRun {
		return reportRun{Workload: "w", Seed: seed, Result: contractLine{Metrics: map[string]metricValue{
			"v_tput_rps": {Value: tput}, "host_us_per_req": {Value: lat}}}}
	}
	spec := &benchSpec{Workloads: []workloadSpec{{Name: "w"}}, EndToEnd: []metricSpec{
		higher, {Name: "host_us_per_req", Better: "lower", Bound: 0.1}}}
	var out bytes.Buffer
	a := &report{Runs: []reportRun{run(1, 1000, 50)}}
	if code := printComparison(spec, a, &report{Runs: []reportRun{run(1, 1000, 54)}}, &out); code != 0 {
		t.Errorf("equal virtual results and host time within its bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(spec, a, &report{Runs: []reportRun{run(1, 1001, 50)}}, &out); code != 1 || !strings.Contains(out.String(), "differs") {
		t.Errorf("same seed, different virtual result: exit %d\n%s", code, out.String())
	}
}
