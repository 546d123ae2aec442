package bench

import (
	"fmt"
	"strings"

	"heron/internal/obs"
	"heron/internal/reconfig"
)

// ReconfigResult is a sweep of seeded elastic-reconfiguration scenarios:
// each row is one full deployment run with a live membership or
// repartitioning change applied under client load, with its
// linearizability verdict. Reports are virtual-state only, so the same
// flags produce byte-identical JSON across invocations.
type ReconfigResult struct {
	Scenarios []*reconfig.Report `json:"scenarios"`
}

// Gate reports whether every scenario converged (committed or cleanly
// rolled back) with a checked, linearizable history.
func (r *ReconfigResult) Gate() bool {
	for _, rep := range r.Scenarios {
		if !rep.Checked || !rep.Linearizable {
			return false
		}
		if rep.Committed && rep.EpochAfter != rep.EpochBefore+1 {
			return false
		}
		if !rep.Committed && rep.EpochAfter != rep.EpochBefore {
			return false
		}
	}
	return true
}

// Format renders the sweep as a table.
func (r *ReconfigResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %11s %9s %6s %6s %6s %7s %9s %5s %7s %10s  %s\n",
		"seed", "scenario", "parts", "replicas", "epoch", "commit", "moved", "fenced", "refreshes", "ops", "failed", "verdict", "note")
	for _, rep := range r.Scenarios {
		fmt.Fprintf(&b, "%-6d %-10s %5d->%-4d %4d->%-4d %6d %6v %6d %7d %9d %5d %7d %10s  %s\n",
			rep.Seed, rep.Scenario,
			rep.PartitionsBefore, rep.PartitionsAfter,
			rep.ReplicasBefore, rep.ReplicasAfter,
			rep.EpochAfter, rep.Committed, rep.MovedObjects, rep.FencedReplicas,
			rep.EpochRefreshes, rep.Ops, rep.FailedOps, verdict(rep.Checked, rep.Linearizable), rep.Err)
	}
	return b.String()
}

// RunReconfig sweeps the elastic-reconfiguration scenarios. With scenario
// "" the sweep runs every built-in scenario (scaleout, scalein, split,
// crash) on the given seed; otherwise it runs the one scenario `runs`
// times on seeds base+i, so a failing run replays standalone with its
// printed seed.
func RunReconfig(scenario string, runs int, seed int64, o *obs.Observer) (*ReconfigResult, error) {
	res := &ReconfigResult{}
	run := func(sc string, sd int64) error {
		rep, err := reconfig.Run(reconfig.Options{Scenario: sc, Seed: sd, Obs: o})
		if err != nil {
			return fmt.Errorf("scenario %s (seed %d): %w", sc, sd, err)
		}
		res.Scenarios = append(res.Scenarios, rep)
		releaseMemory()
		return nil
	}
	if scenario == "" {
		for _, sc := range reconfig.Scenarios {
			if err := run(sc, seed); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	if runs <= 0 {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		if err := run(scenario, seed+int64(i)); err != nil {
			return nil, err
		}
	}
	return res, nil
}
