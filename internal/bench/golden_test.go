package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"heron/internal/chaos"
	"heron/internal/persist"
	"heron/internal/rebalance"
	"heron/internal/sim"
)

// updateGolden regenerates testdata/golden_*.json. The committed files
// hold every later commit to the virtual-time results of the one that
// generated them: regenerate only for a change that is meant to move
// virtual-time results, in a commit of its own that lists the fields
// that moved.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.json from this run")

// heronDigest is everything a HeronRun measured, each latency recorder as
// a sampleDigest.
type heronDigest struct {
	Completed      int
	Throughput     float64
	StateTransfers uint64
	Latency        sampleDigest
	Single         sampleDigest
	Multi          sampleDigest
	ByKind         map[string]sampleDigest
}

// sampleDigest pins a latency recorder: its summaries, so that a
// regenerated golden's diff names what moved, and the SHA-256 of its
// samples, so that any changed, added, dropped or reordered sample
// fails the check.
type sampleDigest struct {
	N                           int
	MeanNS, P50NS, P99NS, MaxNS sim.Duration
	SHA256                      string
}

// digestSamples hashes r's samples as little-endian int64s in recording
// order, before the percentiles sort them in place.
func digestSamples(r *LatencyRecorder) sampleDigest {
	h := sha256.New()
	var b [8]byte
	for _, s := range r.Samples() {
		binary.LittleEndian.PutUint64(b[:], uint64(s))
		h.Write(b[:])
	}
	return sampleDigest{
		N:      r.Count(),
		MeanNS: r.Mean(),
		P50NS:  r.Percentile(50),
		P99NS:  r.Percentile(99),
		MaxNS:  r.Max(),
		SHA256: hex.EncodeToString(h.Sum(nil)),
	}
}

func digestHeron(r *HeronRun) heronDigest {
	d := heronDigest{
		Completed:      r.Completed,
		Throughput:     r.Throughput,
		StateTransfers: r.StateTransfers,
		Latency:        digestSamples(r.Latency),
		Single:         digestSamples(r.LatencySingle),
		Multi:          digestSamples(r.LatencyMulti),
		ByKind:         make(map[string]sampleDigest),
	}
	for k, rec := range r.LatencyByKind {
		d.ByKind[k.String()] = digestSamples(rec)
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
// kernel: same seed, same virtual-time outcome, sample for sample (a
// latency recorder through its sampleDigest).
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
		// Fig. 8's transfer sizes: a full state transfer per row.
		{"fig8", func(t *testing.T) any {
			res, err := RunFig8(1, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		// Both rebalance bench pairs and every verification scenario.
		{"rebalance", func(t *testing.T) any {
			sweep := &RebalanceSweep{}
			for _, sc := range RebalanceScenarios {
				res, err := RunRebalance(smallRebalance(sc))
				if err != nil {
					t.Fatal(err)
				}
				sweep.Bench = append(sweep.Bench, res)
			}
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
			want, err := os.ReadFile(path)
			if err != nil && !(*updateGolden && errors.Is(err, fs.ErrNotExist)) {
				t.Fatal(err)
			}
			if string(got) == string(want) {
				return
			}
			if !*updateGolden {
				t.Fatalf("%s differs from the golden result:\n%s", path, goldenDiff(want, got))
			}
			t.Logf("rewriting %s:\n%s", path, goldenDiff(want, got))
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// maxGoldenDiffs caps how many moved fields a golden mismatch lists.
const maxGoldenDiffs = 20

// goldenDiff lists the JSON paths whose values differ between the golden
// file want and the run's result got, each with both values: object keys
// in sorted order, array elements in index order, at most maxGoldenDiffs.
func goldenDiff(want, got []byte) string {
	w, err := decodeJSON(want)
	if err != nil {
		return "golden file unreadable: " + err.Error()
	}
	g, err := decodeJSON(got)
	if err != nil {
		return "result unreadable: " + err.Error()
	}
	var moved []string
	diffJSON("$", w, g, &moved)
	if len(moved) == 0 {
		return "every value is equal; only the layout differs\n"
	}
	if n := len(moved); n > maxGoldenDiffs {
		moved = append(moved[:maxGoldenDiffs], fmt.Sprintf("... and %d more", n-maxGoldenDiffs))
	}
	return strings.Join(moved, "\n") + "\n"
}

// decodeJSON keeps every number's text, so no int64 rounds through a
// float64.
func decodeJSON(doc []byte) (any, error) {
	d := json.NewDecoder(bytes.NewReader(doc))
	d.UseNumber()
	var v any
	err := d.Decode(&v)
	return v, err
}

// absent stands for the key or element that one side lacks.
type absent struct{}

// diffJSON appends "path: golden w, got g" for every leaf at or below
// path where w and g differ.
func diffJSON(path string, w, g any, moved *[]string) {
	switch w := w.(type) {
	case map[string]any:
		if g, ok := g.(map[string]any); ok {
			keys := maps.Clone(w)
			maps.Copy(keys, g)
			member := func(m map[string]any, k string) any {
				if v, ok := m[k]; ok {
					return v
				}
				return absent{}
			}
			for _, k := range slices.Sorted(maps.Keys(keys)) {
				diffJSON(path+"."+k, member(w, k), member(g, k), moved)
			}
			return
		}
	case []any:
		if g, ok := g.([]any); ok {
			elem := func(s []any, i int) any {
				if i < len(s) {
					return s[i]
				}
				return absent{}
			}
			for i := range max(len(w), len(g)) {
				diffJSON(fmt.Sprintf("%s[%d]", path, i), elem(w, i), elem(g, i), moved)
			}
			return
		}
	}
	if !reflect.DeepEqual(w, g) {
		show := func(v any) string {
			if _, ok := v.(absent); ok {
				return "absent"
			}
			b, _ := json.Marshal(v)
			return string(b)
		}
		*moved = append(*moved, fmt.Sprintf("%s: golden %s, got %s", path, show(w), show(g)))
	}
}

// goldenChaosProfiles runs chaos.Run for every profile, overload
// included, at seeds 2 and 12, sized as RunChaos sizes them, then the
// durable profile at seed 1 over 256 keys of 256 B (the faults-durable
// workload's store).
func goldenChaosProfiles(t *testing.T) []*chaos.Report {
	var reps []*chaos.Report
	for _, seed := range []int64{2, 12} {
		for _, prof := range append(chaos.Profiles[:len(chaos.Profiles):len(chaos.Profiles)], "overload") {
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

func TestGoldenDiffNamesMovedFields(t *testing.T) {
	want := []byte(`{"A": {"N": 3, "SHA256": "x"}, "B": [1, 2], "C": 9007199254740993, "D": {}}`)
	got := []byte(`{"A": {"N": 3, "SHA256": "y"}, "B": [1], "C": 9007199254740992, "D": [], "E": null}`)
	const diff = `$.A.SHA256: golden "x", got "y"
$.B[1]: golden 2, got absent
$.C: golden 9007199254740993, got 9007199254740992
$.D: golden {}, got []
$.E: golden absent, got null
`
	if s := goldenDiff(want, got); s != diff {
		t.Fatalf("goldenDiff:\n%s\nwant:\n%s", s, diff)
	}
	var many []string
	for i := range maxGoldenDiffs + 5 {
		many = append(many, fmt.Sprint(i))
	}
	s := goldenDiff([]byte("[]"), []byte("["+strings.Join(many, ",")+"]"))
	if lines := strings.Split(s, "\n"); len(lines) != maxGoldenDiffs+2 || lines[maxGoldenDiffs] != "... and 5 more" || lines[2] != "$[2]: golden absent, got 2" {
		t.Fatalf("goldenDiff lists %d lines, want %d and a count of the rest:\n%s", len(lines), maxGoldenDiffs+2, s)
	}
}
