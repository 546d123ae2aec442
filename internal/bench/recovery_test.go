package bench

import (
	"encoding/json"
	"testing"

	"heron/internal/chaos"
	"heron/internal/obs"
	"heron/internal/persist"
)

// runRecovery runs a trimmed sweep at 256 keys: seeds schedules from
// seed.
func runRecovery(t *testing.T, seed int64, seeds int) *RecoveryResult {
	t.Helper()
	o := DefaultRecoveryOptions(seed)
	o.Seeds = seeds
	o.Keys = []int{256}
	res, err := RunRecovery(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func encRecovery(t *testing.T, res *RecoveryResult) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLSMBenchGate: the gate's bounds hold on seeds 1-8 at 256 keys —
// both legs linearizable, recoveries through the checkpoint path, fewer
// transfer bytes than the full-transfer baseline, write amplification
// under maxWriteAmp, at most two cold reads per recovery over the
// fabric-only path, and the read microbench exercising bloom filters and
// the block cache.
func TestLSMBenchGate(t *testing.T) {
	for _, res := range []*RecoveryResult{runRecovery(t, 1, 1), runRecovery(t, 2, 7)} {
		if !res.Gate() {
			t.Fatalf("recovery gate failed:\n%s", encRecovery(t, res))
		}
	}
}

// TestLSMBenchDeterministic: the same seed twice gives byte-identical
// JSON — the replay guarantee extends through both legs and the read
// microbench.
func TestLSMBenchDeterministic(t *testing.T) {
	a, b := encRecovery(t, runRecovery(t, 1, 1)), encRecovery(t, runRecovery(t, 1, 1))
	if string(a) != string(b) {
		t.Fatalf("same-seed recovery sweep diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestDurableProfileSumsToE2E pins the critical-path attribution
// identity with the persistence layer attached: background flush,
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
	opt.Persist = &persist.Options{}
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
		t.Fatalf("checkpointer idle (compactions=%d checkpoints=%d): nothing to attribute around",
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
