package bench

import (
	"encoding/json"
	"testing"

	"heron/internal/chaos"
	"heron/internal/obs"
	"heron/internal/persist"
)

// lsmBenchOnce runs a trimmed sweep (two sizes) so the suite stays
// fast while still crossing the gate's largest-size comparison.
func lsmBenchOnce(t *testing.T) *LSMResult {
	t.Helper()
	o := DefaultLSMBenchOptions(3)
	o.Keys = []int{16, 256}
	res, err := RunLSMBench(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLSMBenchGate: the CI acceptance criterion — at the largest store
// size the LSM engine beats the flat engine on both write amplification
// and recovery time, with both schedules linearizable and the read
// microbench exercising bloom filters and the block cache.
func TestLSMBenchGate(t *testing.T) {
	res := lsmBenchOnce(t)
	if !res.Gate() {
		b, _ := json.Marshal(res)
		t.Fatalf("LSM bench gate failed:\n%s", b)
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Compactions == 0 {
		t.Fatal("largest-size LSM run performed no compactions")
	}
	// The durable schedules aim crashes inside flushes and compactions, but
	// whether one lands depends on the workload phase (chaos.genDurable), so
	// the evidence is counted over a seed range, not read off this seed.
	flushHits, compactionHits := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rep, err := runLSMOnce(DefaultLSMBenchOptions(seed), last.Keys, persist.EngineLSM)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Checked || !rep.Linearizable {
			t.Fatalf("seed %d: checked=%v linearizable=%v", seed, rep.Checked, rep.Linearizable)
		}
		if rep.FlushFaults > 0 {
			flushHits++
		}
		if rep.CompactionFaults > 0 {
			compactionHits++
		}
	}
	if flushHits < 2 || compactionHits < 2 {
		t.Fatalf("seeds 1-8 at %d keys: %d schedules aborted a flush, %d a compaction; want at least 2 of each",
			last.Keys, flushHits, compactionHits)
	}
	// The flat engine rewrites the full store each checkpoint; at 256
	// keys its amplification should dwarf the incremental path by a wide
	// margin, not squeak past it.
	if last.FlatWriteAmp < 2*last.LSMWriteAmp {
		t.Fatalf("flat amp %.2f not clearly above lsm amp %.2f at %d keys",
			last.FlatWriteAmp, last.LSMWriteAmp, last.Keys)
	}
}

// TestLSMBenchDeterministic: same options, byte-identical JSON — the
// replay guarantee extends through both engines and the read microbench.
func TestLSMBenchDeterministic(t *testing.T) {
	enc := func() []byte {
		b, err := json.Marshal(lsmBenchOnce(t))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatalf("same-seed LSM bench diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestDurableProfileSumsToE2E pins the critical-path attribution
// identity with the LSM persistence layer attached: background flush,
// compaction, and durability-gated truncation I/O must never leak into
// request segments, so the profile's segment sum still equals its total
// end-to-end latency exactly.
func TestDurableProfileSumsToE2E(t *testing.T) {
	opt := chaos.DefaultOptions()
	opt.Keys = 64
	sc, err := chaos.Generate("durable", 3, opt.Partitions, opt.Replicas)
	if err != nil {
		t.Fatal(err)
	}
	opt.Schedule = sc
	opt.Persist = &persist.Options{Engine: persist.EngineLSM}
	cp := obs.NewCritPath(1)
	opt.Obs = obs.NewFull(nil, nil, cp, nil, nil)
	rep, err := chaos.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	if rep.Compactions == 0 || rep.Checkpoints == 0 {
		t.Fatalf("LSM engine idle (compactions=%d checkpoints=%d): nothing to attribute around",
			rep.Compactions, rep.Checkpoints)
	}
	p := cp.Profile(0)
	if p.Attributed == 0 {
		t.Fatal("nothing attributed")
	}
	if p.SegmentSumNS != p.TotalE2ENS {
		t.Fatalf("durable-gate attribution leak: segment sum %d != total e2e %d",
			p.SegmentSumNS, p.TotalE2ENS)
	}
}
