package chaos

import (
	"encoding/json"
	"runtime"
	"testing"

	"heron/internal/persist"
)

// runDurable runs the durable crash→recover profile, with or without the
// checkpointing layer, over a store large enough (64 keys per partition)
// that the delta-vs-full transfer difference is unambiguous.
func runDurable(t *testing.T, seed int64, withCkpt bool) *Report {
	t.Helper()
	opt := DefaultOptions()
	opt.Keys = 64
	sc, err := Generate("durable", seed, opt.Partitions, opt.Replicas)
	if err != nil {
		t.Fatal(err)
	}
	opt.Schedule = sc
	if withCkpt {
		opt.Persist = &persist.Options{}
	}
	rep, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDurableCrashRecoverLinearizes: crash→recover with checkpoints on
// must stay linearizable, and the recoveries must actually go through the
// checkpoint path (restore + delta), not silently fall back to full
// transfers.
func TestDurableCrashRecoverLinearizes(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		rep := runDurable(t, seed, true)
		if rep.Err != "" {
			t.Fatalf("seed %d: %s", seed, rep.Err)
		}
		if !rep.Checked || !rep.Linearizable {
			t.Fatalf("seed %d: history not linearizable (checked=%v)", seed, rep.Checked)
		}
		if rep.Crashes == 0 || rep.Recoveries != rep.Crashes {
			t.Fatalf("seed %d: %d crashes, %d recoveries — schedule did not exercise recovery",
				seed, rep.Crashes, rep.Recoveries)
		}
		if rep.Checkpoints == 0 || rep.CheckpointBytes == 0 {
			t.Fatalf("seed %d: no checkpoints written (%d ckpts, %d bytes)",
				seed, rep.Checkpoints, rep.CheckpointBytes)
		}
		if rep.CkptRecoveries == 0 {
			t.Fatalf("seed %d: recoveries bypassed the checkpoint path", seed)
		}
	}
}

// TestDurableAimedFaults: the durable profile's first two rounds aim at
// the engine's exact virtual instants — a crash a few microseconds into
// a memtable flush's append+sync window, and one inside a compaction's
// writeback — so the run must record both an aborted flush and an
// aborted compaction (and still linearize; covered above for other
// seeds, re-asserted here since aborted background I/O is exactly where
// a torn manifest would surface). Whether the mid-flush crash catches a
// run in flight is workload-phase dependent, so the seeds are ones the
// schedule arithmetic provably hits.
func TestDurableAimedFaults(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		rep := runDurable(t, seed, true)
		if rep.Err != "" || !rep.Checked || !rep.Linearizable {
			t.Fatalf("seed %d: err=%q checked=%v lin=%v", seed, rep.Err, rep.Checked, rep.Linearizable)
		}
		if rep.FlushFaults == 0 {
			t.Fatalf("seed %d: no flush caught mid-write (FlushFaults=0)", seed)
		}
		if rep.CompactionFaults == 0 {
			t.Fatalf("seed %d: no compaction caught mid-writeback (CompactionFaults=0)", seed)
		}
		if rep.Compactions == 0 || rep.WrittenBytes <= rep.DirtyBytes {
			t.Fatalf("seed %d: LSM engine not exercised (compactions=%d written=%d dirty=%d)",
				seed, rep.Compactions, rep.WrittenBytes, rep.DirtyBytes)
		}
	}
}

// TestDurableDeltaBeatsFullTransfer: with checkpoints, the bytes shipped
// by peers during recovery must be strictly below the checkpoint-free
// baseline for the same schedule — the whole point of the delta path.
func TestDurableDeltaBeatsFullTransfer(t *testing.T) {
	ck := runDurable(t, 3, true)
	base := runDurable(t, 3, false)
	if ck.Err != "" || base.Err != "" {
		t.Fatalf("runs degraded: ckpt=%q base=%q", ck.Err, base.Err)
	}
	if ck.CkptRecoveries == 0 {
		t.Fatal("checkpointed run performed no checkpoint recoveries")
	}
	ckBytes := ck.DeltaTransferBytes + ck.FullTransferBytes
	baseBytes := base.DeltaTransferBytes + base.FullTransferBytes
	if baseBytes == 0 {
		t.Fatal("baseline run shipped no transfer bytes")
	}
	if ckBytes >= baseBytes {
		t.Fatalf("checkpointed transfers (%d B) not below full-transfer baseline (%d B)",
			ckBytes, baseBytes)
	}
}

// TestDurableRunDeterministic: the replay guarantee must hold with the
// persistence layer attached — same seed, byte-identical JSON report.
func TestDurableRunDeterministic(t *testing.T) {
	enc := func() []byte {
		rep := runDurable(t, 7, true)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatalf("same seed produced different durable reports:\n%s\n%s", a, b)
	}
}

// TestRunReleasesItsProcs: a run's deployment — replicas, multicast
// processes, checkpointers, clients parked mid-protocol at the horizon —
// is unwound when Run returns, so back-to-back runs do not accumulate
// parked goroutines.
func TestRunReleasesItsProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	rep := runDurable(t, 3, true)
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after chaos.Run, %d before", after, before)
	}
}
