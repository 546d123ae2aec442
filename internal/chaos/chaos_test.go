package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// runProfile generates and runs one schedule with default options.
func runProfile(t *testing.T, profile string, seed int64) *Report {
	t.Helper()
	opt := DefaultOptions()
	sc, err := Generate(profile, seed, opt.Partitions, opt.Replicas)
	if err != nil {
		t.Fatal(err)
	}
	opt.Schedule = sc
	rep, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGenerateDeterministic: the same (profile, seed, topology) must
// produce identical schedules.
func TestGenerateDeterministic(t *testing.T) {
	for _, profile := range append(append([]string{}, Profiles...), "overload") {
		a, err := Generate(profile, 42, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(profile, 42, 2, 3)
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("profile %s: schedules differ for the same seed", profile)
		}
		if len(a.Events) == 0 {
			t.Fatalf("profile %s: empty schedule", profile)
		}
	}
	a, _ := Generate("churn", 1, 2, 3)
	b, _ := Generate("churn", 2, 2, 3)
	if fmt.Sprintf("%+v", a.Events) == fmt.Sprintf("%+v", b.Events) {
		t.Fatal("different seeds produced identical churn schedules")
	}
}

// TestRunDeterministic: the same seed and options must produce a
// byte-identical JSON report across two full runs — the replay guarantee
// that makes chaos failures debuggable.
func TestRunDeterministic(t *testing.T) {
	enc := func() []byte {
		rep := runProfile(t, "churn", 7)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatalf("same seed produced different reports:\n%s\n%s", a, b)
	}
}

// TestChurnWithinFaultBoundLinearizes: crash-recovery churn that never
// exceeds f simultaneous crashes per partition must complete every
// operation and pass the linearizability check.
func TestChurnWithinFaultBoundLinearizes(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		rep := runProfile(t, "churn", seed)
		if rep.Err != "" {
			t.Fatalf("seed %d: %s", seed, rep.Err)
		}
		if rep.Crashes == 0 || rep.Recoveries != rep.Crashes {
			t.Fatalf("seed %d: %d crashes, %d recoveries — schedule did not exercise recovery",
				seed, rep.Crashes, rep.Recoveries)
		}
		if !rep.Checked || !rep.Linearizable {
			t.Fatalf("seed %d: history not linearizable (checked=%v): %+v", seed, rep.Checked, rep)
		}
	}
}

// TestChurnCrashDumpsFlightTrace: with FlightDir set, the injected crashes
// write flight-recorder dumps, each a loadable trace_event file with at
// least one instant event, and the report lists exactly the files written.
func TestChurnCrashDumpsFlightTrace(t *testing.T) {
	opt := DefaultOptions()
	sc, err := Generate("churn", 1, opt.Partitions, opt.Replicas)
	if err != nil {
		t.Fatal(err)
	}
	opt.Schedule = sc
	opt.FlightDir = t.TempDir()
	rep, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(opt.FlightDir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FlightDumps) == 0 || len(files) != len(rep.FlightDumps) {
		t.Fatalf("report lists %d dumps, directory holds %d; want the same, at least one",
			len(rep.FlightDumps), len(files))
	}
	for _, name := range rep.FlightDumps {
		b, err := os.ReadFile(filepath.Join(opt.FlightDir, name))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Ph  string `json:"ph"`
				Pid *int   `json:"pid"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &trace); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		instants := 0
		for _, ev := range trace.TraceEvents {
			if ev.Ph == "" || ev.Pid == nil {
				t.Fatalf("%s: event without ph or pid", name)
			}
			if ev.Ph == "i" {
				instants++
			}
		}
		if instants == 0 {
			t.Fatalf("%s: no instant events", name)
		}
	}
}

// TestPartitionsAndSlowNICLinearize: rolling single-link partitions and
// slow-NIC windows never remove a majority, so every operation must
// complete and linearize.
func TestPartitionsAndSlowNICLinearize(t *testing.T) {
	for _, profile := range []string{"partitions", "slownic", "mixed"} {
		rep := runProfile(t, profile, 3)
		if rep.Err != "" {
			t.Fatalf("%s: %s", profile, rep.Err)
		}
		if !rep.Checked || !rep.Linearizable {
			t.Fatalf("%s: history not linearizable: %+v", profile, rep)
		}
	}
}

// TestLeaseCrashLinearizes: the leasecrash profile crashes the lease
// holder mid-grant and (after the switch) the new holder mid-renewal,
// while clients mix local-read probes into the workload. At most one
// replica is down at a time, so every operation must complete and the
// full history — local reads included — must linearize. The run must
// actually have exercised the lease path (local hits and both crashes),
// and the report must replay byte-identically for the same seed.
func TestLeaseCrashLinearizes(t *testing.T) {
	for _, seed := range []int64{2, 6, 10} {
		rep := runProfile(t, "leasecrash", seed)
		if rep.Err != "" {
			t.Fatalf("seed %d: %s", seed, rep.Err)
		}
		if !rep.Checked || !rep.Linearizable {
			t.Fatalf("seed %d: history not linearizable (checked=%v): %+v", seed, rep.Checked, rep)
		}
		if rep.Crashes != 2 || rep.Recoveries != 2 {
			t.Fatalf("seed %d: %d crashes, %d recoveries — holder crashes did not fire",
				seed, rep.Crashes, rep.Recoveries)
		}
		if rep.LocalReads == 0 {
			t.Fatalf("seed %d: no read was served locally — the lease path never engaged", seed)
		}
		if rep.LeaseGrants == 0 {
			t.Fatalf("seed %d: no lease was ever granted", seed)
		}
	}
}

// TestLeaseCrashReportDeterministic: the lease path (probes, fallbacks,
// holder switches) must not leak nondeterminism into reports — the
// same-seed replay guarantee extends to leasecrash runs.
func TestLeaseCrashReportDeterministic(t *testing.T) {
	enc := func() []byte {
		rep := runProfile(t, "leasecrash", 7)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatalf("same seed produced different leasecrash reports:\n%s\n%s", a, b)
	}
}

// TestOverloadDegradesCleanly: crashing f+1 replicas of a partition
// exceeds the fault bound. The run must still terminate — operations on
// the dead partition fail by timeout, nothing deadlocks — and the report
// must say "degraded, unchecked" rather than claim a linearizable pass.
func TestOverloadDegradesCleanly(t *testing.T) {
	rep := runProfile(t, "overload", 11)
	if rep.Crashes < 2 {
		t.Fatalf("overload schedule crashed only %d replicas", rep.Crashes)
	}
	if rep.FailedOps == 0 {
		t.Fatal("no operation failed despite a dead partition")
	}
	if rep.Checked || rep.Linearizable {
		t.Fatalf("overload run claimed a checked pass: %+v", rep)
	}
	if rep.Err == "" {
		t.Fatal("degraded run reported no error")
	}
	if rep.Ops != DefaultOptions().Clients*DefaultOptions().OpsPerClient {
		t.Fatalf("only %d operations reached a clean outcome (liveness violation)", rep.Ops)
	}
}
