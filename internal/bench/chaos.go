package bench

import (
	"fmt"
	"strings"

	"heron/internal/chaos"
	"heron/internal/obs"
	"heron/internal/persist"
)

// ChaosResult is a sweep of seeded chaos schedules: each row is one full
// deployment run under one generated fault script, with its
// linearizability verdict. Reports are virtual-state only, so the same
// flags produce byte-identical JSON across invocations.
type ChaosResult struct {
	Schedules []*chaos.Report `json:"schedules"`
}

// Gate reports whether every checked schedule passed and none failed to
// check (excluding deliberate overload schedules, which report clean
// degradation instead of a verdict).
func (r *ChaosResult) Gate() bool {
	for _, rep := range r.Schedules {
		if rep.Profile == "overload" {
			continue
		}
		if !rep.Checked || !rep.Linearizable {
			return false
		}
	}
	return true
}

// Format renders the sweep as a table.
func (r *ChaosResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-12s %7s %5s %7s %8s %9s %6s %6s %10s  %s\n",
		"seed", "profile", "events", "ops", "failed", "crashes", "recovers", "parts", "heals", "verdict", "note")
	for _, rep := range r.Schedules {
		fmt.Fprintf(&b, "%-6d %-12s %7d %5d %7d %8d %9d %6d %6d %10s  %s\n",
			rep.Seed, rep.Profile, rep.Events, rep.Ops, rep.FailedOps,
			rep.Crashes, rep.Recoveries, rep.Partitions, rep.Heals,
			verdict(rep.Checked, rep.Linearizable), rep.Err)
	}
	return b.String()
}

// verdict labels a history in a sweep table: linearizable, violating, or
// degraded when it could not be checked.
func verdict(checked, linearizable bool) string {
	switch {
	case !checked:
		return "DEGRADED"
	case linearizable:
		return "LINEARIZ."
	}
	return "VIOLATION"
}

// RunChaos sweeps `schedules` seeded fault schedules. With profile ""
// the sweep rotates through the generator profiles, chaos.Profiles
// (churn, partitions, slownic, mixed, durable, leasecrash); otherwise
// every schedule uses the given profile, overload included.
// Schedule i uses seed base+i, so a failing schedule replays standalone
// with its printed seed and profile. A non-empty flightDir enables the
// flight recorder's auto-dumps (crash, violation, sim error) into that
// directory.
func RunChaos(schedules int, seed int64, profile, flightDir string, o *obs.Observer) (*ChaosResult, error) {
	if schedules <= 0 {
		return nil, fmt.Errorf("bench: chaos needs at least one schedule, got %d", schedules)
	}
	res := &ChaosResult{}
	for i := 0; i < schedules; i++ {
		opt := chaos.DefaultOptions()
		prof := profile
		if prof == "" {
			prof = chaos.Profiles[i%len(chaos.Profiles)]
		}
		sc, err := chaos.Generate(prof, seed+int64(i), opt.Partitions, opt.Replicas)
		if err != nil {
			return nil, err
		}
		opt.Schedule = sc
		opt.Obs = o
		opt.FlightDir = flightDir
		if prof == "durable" {
			// The durable profile exercises the checkpoint + delta recovery
			// path; a wider store makes the delta saving visible.
			opt.Keys = 64
			opt.Persist = &persist.Options{}
		}
		rep, err := chaos.Run(opt)
		if err != nil {
			return nil, fmt.Errorf("schedule %d (profile %s, seed %d): %w", i, prof, seed+int64(i), err)
		}
		res.Schedules = append(res.Schedules, rep)
		releaseMemory()
	}
	return res, nil
}
