package rebalance

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// TestRunSkew: the controller autonomously sheds the hotspot and the
// history stays linearizable through the epoch flips.
func TestRunSkew(t *testing.T) {
	rep, err := Run(Options{Scenario: ScenarioSkew, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Checked || !rep.Linearizable {
		t.Fatalf("verdict: checked=%v linearizable=%v err=%q", rep.Checked, rep.Linearizable, rep.Err)
	}
	if rep.ChangesApplied == 0 {
		t.Fatalf("controller applied no changes: %+v", rep)
	}
	if rep.EpochAfter != rep.EpochBefore+uint64(rep.ChangesApplied) {
		t.Fatalf("epoch %d -> %d with %d commits", rep.EpochBefore, rep.EpochAfter, rep.ChangesApplied)
	}
	for _, d := range rep.Decisions {
		if d.Hot != 0 {
			t.Fatalf("shed from p%d, want the hot partition 0: %v", d.Hot, d)
		}
	}
}

// TestRunScaleOut: with no cold peer, the controller attaches the spare
// partition and sheds onto it.
func TestRunScaleOut(t *testing.T) {
	rep, err := Run(Options{Scenario: ScenarioScaleOut, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Checked || !rep.Linearizable {
		t.Fatalf("verdict: checked=%v linearizable=%v err=%q", rep.Checked, rep.Linearizable, rep.Err)
	}
	if rep.PartitionsAfter <= rep.PartitionsBefore {
		t.Fatalf("partitions %d -> %d, want growth: %+v", rep.PartitionsBefore, rep.PartitionsAfter, rep.Decisions)
	}
}

// TestRunCrashScenarios: crashing the heat-feeding replica or a
// migration donor mid-rebalance must leave the history linearizable
// (or cleanly degraded with timed-out ops — never a violation).
func TestRunCrashScenarios(t *testing.T) {
	for _, sc := range []string{ScenarioFeederCrash, ScenarioDonorCrash} {
		rep, err := Run(Options{Scenario: sc, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if rep.Crashes == 0 {
			t.Fatalf("%s: no crash fired", sc)
		}
		if rep.Checked && !rep.Linearizable {
			t.Fatalf("%s: linearizability violation: %+v", sc, rep)
		}
		if !rep.Checked && rep.FailedOps == 0 {
			t.Fatalf("%s: unchecked without timeouts: %q", sc, rep.Err)
		}
	}
}

// TestRunDeterminism: the same seed serializes to byte-identical
// reports.
func TestRunDeterminism(t *testing.T) {
	mk := func() []byte {
		rep, err := Run(Options{Scenario: ScenarioSkew, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := mk(), mk(); !bytes.Equal(a, b) {
		t.Fatalf("same-seed reports differ:\n%s\n%s", a, b)
	}
}

// TestRunReleasesItsProcs: a scenario's deployment — replicas, multicast
// processes, the controller's decision loop, clients parked at the
// horizon — is unwound when Run returns (as chaos.TestRunReleasesItsProcs
// checks for chaos.Run), so a sweep does not accumulate parked goroutines.
func TestRunReleasesItsProcs(t *testing.T) {
	before := settledGoroutines()
	rep, err := Run(Options{Scenario: ScenarioSkew, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChangesApplied == 0 {
		t.Fatalf("controller applied no changes: %+v", rep)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after rebalance.Run, %d before", after, before)
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has stopped
// changing, so a goroutine an earlier test left winding down is not counted
// in one reading and gone from the next.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable, i := 0, 0; stable < 5 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}
