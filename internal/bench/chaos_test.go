package bench

import "testing"

// TestChaosSweepGate runs the seeded sweep CI replays — five schedules
// rotating through churn, partitions, slownic, mixed and durable — and
// holds it to more than the subcommand's exit code: every schedule is
// checked and linearizable, and the durable schedule recovers through
// checkpoints and truncates the multicast log.
func TestChaosSweepGate(t *testing.T) {
	res, err := RunChaos(5, 1, "", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Gate() {
		t.Fatal("the sweep's gate failed")
	}
	durable := 0
	for _, s := range res.Schedules {
		if !s.Checked || !s.Linearizable {
			t.Fatalf("%s seed %d: checked=%v linearizable=%v (%s)",
				s.Profile, s.Seed, s.Checked, s.Linearizable, s.Err)
		}
		if s.Profile != "durable" {
			continue
		}
		durable++
		if s.CkptRecoveries == 0 || s.TruncatedEntries == 0 {
			t.Fatalf("durable seed %d: %d checkpoint recoveries, %d truncated log entries; want both > 0",
				s.Seed, s.CkptRecoveries, s.TruncatedEntries)
		}
	}
	if durable == 0 {
		t.Fatal("profile rotation skipped the durable schedule")
	}
}
