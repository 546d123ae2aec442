package reconfig

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"heron/internal/rdma"
	"heron/internal/store"
)

func TestApplyValidation(t *testing.T) {
	base := &Configuration{
		Epoch:  1,
		Groups: [][]rdma.NodeID{{1, 2, 3}, {4, 5, 6}},
		Routes: []Range{{Lo: 0, Hi: 7, Part: 0}, {Lo: 8, Hi: 15, Part: 1}},
	}
	cases := []struct {
		name string
		ch   Change
		ok   bool
	}{
		{"add two replicas", Change{AddReplicas: []AddReplica{{0, 7}, {0, 8}}}, true},
		{"even group", Change{AddReplicas: []AddReplica{{0, 7}}}, false},
		{"duplicate node", Change{AddReplicas: []AddReplica{{0, 4}, {0, 7}}}, false},
		{"remove to one", Change{RemoveReplicas: []RemoveReplicas{{0, 2}}}, true},
		{"remove all", Change{RemoveReplicas: []RemoveReplicas{{0, 3}}}, false},
		{"exceed group cap", Change{AddReplicas: []AddReplica{{0, 7}, {0, 8}, {0, 9}, {0, 10}}}, false},
		{"split", Change{AddPartitions: [][]rdma.NodeID{{7, 8, 9}}, Moves: []Move{{Lo: 4, Hi: 7, To: 2}}}, true},
		{"exceed partition cap", Change{AddPartitions: [][]rdma.NodeID{{7, 8, 9}, {10, 11, 12}}}, false},
		{"move to unknown partition", Change{Moves: []Move{{Lo: 4, Hi: 7, To: 5}}}, false},
		{"move unrouted range", Change{Moves: []Move{{Lo: 10, Hi: 20, To: 0}}}, false},
	}
	for _, tc := range cases {
		next, err := base.Apply(tc.ch, 3, 5)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation accepted a bad change", tc.name)
		}
		if err == nil && next.Epoch != base.Epoch+1 {
			t.Errorf("%s: epoch %d, want %d", tc.name, next.Epoch, base.Epoch+1)
		}
	}
}

func TestApplyMoveSplitsRanges(t *testing.T) {
	base := &Configuration{
		Epoch:  1,
		Groups: [][]rdma.NodeID{{1, 2, 3}, {4, 5, 6}},
		Routes: []Range{{Lo: 0, Hi: 15, Part: 0}},
	}
	next, err := base.Apply(Change{Moves: []Move{{Lo: 4, Hi: 7, To: 1}}}, 2, 3)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	want := []Range{{Lo: 0, Hi: 3, Part: 0}, {Lo: 4, Hi: 7, Part: 1}, {Lo: 8, Hi: 15, Part: 0}}
	if len(next.Routes) != len(want) {
		t.Fatalf("routes %v, want %v", next.Routes, want)
	}
	for i := range want {
		if next.Routes[i] != want[i] {
			t.Fatalf("route %d: %v, want %v", i, next.Routes[i], want[i])
		}
	}
	for oid := store.OID(0); oid < 16; oid++ {
		want := 0
		if oid >= 4 && oid <= 7 {
			want = 1
		}
		if got := int(next.PartitionOf(oid)); got != want {
			t.Errorf("PartitionOf(%d) = %d, want %d", oid, got, want)
		}
	}
}

func TestConfigurationCodec(t *testing.T) {
	c := &Configuration{
		Epoch:  7,
		Groups: [][]rdma.NodeID{{1, 2, 3}, {4, 5, 6, 7, 8}},
		Routes: []Range{{Lo: 0, Hi: 9, Part: 1}, {Lo: 10, Hi: 19, Part: 0}},
	}
	dec, err := DecodeConfiguration(c.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Epoch != c.Epoch || len(dec.Groups) != 2 || len(dec.Routes) != 2 {
		t.Fatalf("round trip mangled: %+v", dec)
	}
	if dec.Groups[1][4] != 8 || dec.Routes[0].Part != 1 {
		t.Fatalf("round trip mangled: %+v", dec)
	}
	if _, err := DecodeConfiguration([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated configuration decoded")
	}
}

// runScenario executes one scenario and asserts the common invariants.
func runScenario(t *testing.T, scenario string, seed int64) *Report {
	t.Helper()
	rep, err := Run(Options{Scenario: scenario, Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", scenario, err)
	}
	if rep.Err != "" {
		t.Fatalf("%s: %s", scenario, rep.Err)
	}
	if !rep.Checked || !rep.Linearizable {
		t.Fatalf("%s: history not linearizable (checked=%v)", scenario, rep.Checked)
	}
	return rep
}

func TestScaleOut(t *testing.T) {
	rep := runScenario(t, ScenarioScaleOut, 1)
	if !rep.Committed || rep.EpochAfter != 2 {
		t.Fatalf("scale-out did not commit: %+v", rep)
	}
	if rep.ReplicasBefore != 6 || rep.ReplicasAfter != 10 {
		t.Fatalf("replicas %d -> %d, want 6 -> 10", rep.ReplicasBefore, rep.ReplicasAfter)
	}
}

func TestScaleIn(t *testing.T) {
	rep := runScenario(t, ScenarioScaleIn, 2)
	if !rep.Committed || rep.EpochAfter != 2 {
		t.Fatalf("scale-in did not commit: %+v", rep)
	}
	if rep.ReplicasBefore != 10 || rep.ReplicasAfter != 6 {
		t.Fatalf("replicas %d -> %d, want 10 -> 6", rep.ReplicasBefore, rep.ReplicasAfter)
	}
}

func TestSplit(t *testing.T) {
	rep := runScenario(t, ScenarioSplit, 3)
	if !rep.Committed || rep.EpochAfter != 2 {
		t.Fatalf("split did not commit: %+v", rep)
	}
	if rep.PartitionsBefore != 2 || rep.PartitionsAfter != 4 {
		t.Fatalf("partitions %d -> %d, want 2 -> 4", rep.PartitionsBefore, rep.PartitionsAfter)
	}
	if rep.MovedObjects != 8 {
		t.Fatalf("moved %d objects, want 8", rep.MovedObjects)
	}
}

// TestCrashMidMigration crashes a replica between the change initiation
// and the flip: the change must still converge — commit under the new
// epoch or roll back to the old one — with a linearizable history either
// way (no request may observe two homes for one object).
func TestCrashMidMigration(t *testing.T) {
	rep := runScenario(t, ScenarioCrash, 4)
	if rep.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", rep.Crashes)
	}
	switch {
	case rep.Committed && rep.EpochAfter == 2:
	case !rep.Committed && rep.EpochAfter == 1:
	default:
		t.Fatalf("change did not converge: %+v", rep)
	}
}

// TestRunReleasesItsProcs: a scenario's deployment — replicas old and
// new, multicast processes, the coordinator, clients parked at the
// horizon — is unwound when Run returns (as chaos.TestRunReleasesItsProcs
// checks for chaos.Run), so a sweep does not accumulate parked goroutines.
func TestRunReleasesItsProcs(t *testing.T) {
	before := settledGoroutines()
	runScenario(t, ScenarioScaleOut, 1)
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after reconfig.Run, %d before", after, before)
	}
}

// TestSameSeedSameReport asserts byte-identical JSON reports for the same
// seed and scenario — the determinism contract of heron-bench reconfig.
func TestSameSeedSameReport(t *testing.T) {
	for _, scenario := range Scenarios {
		a, err := Run(Options{Scenario: scenario, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
		b, err := Run(Options{Scenario: scenario, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Fatalf("%s: same seed diverged:\n%s\n%s", scenario, ja, jb)
		}
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
