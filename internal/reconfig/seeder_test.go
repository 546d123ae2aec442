package reconfig

import (
	"testing"

	"heron/internal/persist"
)

// TestScaleOutCheckpointSeeded: with the persistence layer wired as the
// manager's JoinerSeeder, a scale-out's joiners must bring up through a
// donor checkpoint + delta transfer (not the full-state path), and the
// history must stay linearizable.
func TestScaleOutCheckpointSeeded(t *testing.T) {
	rep, err := Run(Options{Scenario: ScenarioScaleOut, Seed: 1, Persist: &persist.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != "" {
		t.Fatalf("run degraded: %s", rep.Err)
	}
	if !rep.Checked || !rep.Linearizable {
		t.Fatalf("history not linearizable (checked=%v)", rep.Checked)
	}
	if !rep.Committed || rep.ReplicasAfter != 10 {
		t.Fatalf("scale-out did not commit: %+v", rep)
	}
	// Four joiners (two per partition), each seeded from a donor
	// checkpoint.
	if rep.CkptRecoveries < 4 {
		t.Fatalf("joiners bypassed checkpoint seeding: %d checkpoint recoveries, want >= 4",
			rep.CkptRecoveries)
	}
}

// TestScaleOutSeededMatchesPlain: the seeded run must produce the same
// client-visible outcome profile (commit, epochs, op counts) as the
// unseeded one — persistence changes the bring-up path, not semantics.
func TestScaleOutSeededMatchesPlain(t *testing.T) {
	plain, err := Run(Options{Scenario: ScenarioScaleOut, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := Run(Options{Scenario: ScenarioScaleOut, Seed: 4, Persist: &persist.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Err != "" || seeded.Err != "" {
		t.Fatalf("degraded runs: plain=%q seeded=%q", plain.Err, seeded.Err)
	}
	if !plain.Committed || !seeded.Committed {
		t.Fatalf("commit mismatch: plain=%v seeded=%v", plain.Committed, seeded.Committed)
	}
	if plain.Ops != seeded.Ops || plain.EpochAfter != seeded.EpochAfter {
		t.Fatalf("outcome mismatch: plain ops=%d epoch=%d, seeded ops=%d epoch=%d",
			plain.Ops, plain.EpochAfter, seeded.Ops, seeded.EpochAfter)
	}
}
