package rebalance

import (
	"fmt"
	"math/rand"
	"slices"

	"heron/internal/chaos"
	"heron/internal/core"
	"heron/internal/kvapp"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/rdma"
	"heron/internal/reconfig"
	"heron/internal/sim"
	"heron/internal/store"
)

// Verification harness: a skewed read-sum-write workload runs against a
// live deployment while the controller rebalances it, with the chaos
// engine optionally crashing the heat-feeding replica or a migration
// donor mid-rebalance. The client history is checked for
// linearizability — routing decided purely by the routing table the
// controller keeps rewriting, so a request that observed a stale or
// half-flipped home would fail the check. The workload is kvapp's,
// whose HeatKey feeds the hot-key sketch the planner's split boundaries
// come from.

// Scenarios.
const (
	// ScenarioSkew concentrates load on partition 0's low keys; the
	// controller must shed it onto the idle partition 1.
	ScenarioSkew = "skew"
	// ScenarioScaleOut loads both partitions (one more) with ColdRatio
	// tightened so neither qualifies as a shed target: the controller
	// must attach a spare-node partition and shed onto it.
	ScenarioScaleOut = "scaleout"
	// ScenarioFeederCrash is ScenarioSkew plus a crash of p0/r0 — the
	// rank-0 replica that feeds partition 0's heat telemetry — so the
	// controller decides on a silenced signal and must stay safe.
	ScenarioFeederCrash = "feedercrash"
	// ScenarioDonorCrash is ScenarioSkew plus a crash of a migration
	// donor replica landing mid-rebalance (timed off the controller's
	// own change-start hook).
	ScenarioDonorCrash = "donorcrash"
)

// Scenarios lists the built-in scenarios.
var Scenarios = []string{ScenarioSkew, ScenarioScaleOut, ScenarioFeederCrash, ScenarioDonorCrash}

// Options configure one verification run. Everything else is fixed:
// the constants below, and per scenario by scenarioPolicy.
type Options struct {
	Scenario string
	Seed     int64
	Obs      *obs.Observer
}

// Every scenario runs 3 clients of 14 operations (42, within lincheck's
// 64-op bound) over 16 keys. The controller decides until active (the
// workload and any faults land inside it); the run then ends once the
// deployment has settled, or at horizon when it never does (a replica
// left crashed keeps it unsettled). ScenarioFeederCrash kills p0/r0 at
// crashAt; ScenarioDonorCrash kills a donor replica of the hot
// partition donorCrashDelay after a change starts.
const (
	keyCount                  = 16
	clientCount, opsPerClient = 3, 14
	opTimeout                 = 200 * sim.Millisecond
	fenceTimeout              = 100 * sim.Millisecond
	horizon                   = 3 * sim.Second
	active                    = 30 * sim.Millisecond
	crashAt                   = 4 * sim.Millisecond
	donorCrashDelay           = 150 * sim.Microsecond
)

// scenarioPolicy returns the controller policy a scenario runs under.
func scenarioPolicy(scenario string) Policy {
	pol := Policy{HotRatio: 1.4, ColdRatio: 0.8, MinRate: 500, MaxChanges: 2, MaxPartitions: 4}
	if scenario == ScenarioScaleOut {
		// Both partitions stay warm: only a fresh partition can absorb.
		pol.HotRatio, pol.ColdRatio = 1.1, 0.3
	}
	return pol
}

// Report is the outcome of one verification run. Every field derives
// from virtual-clock state, so the same seed and options produce a
// byte-identical JSON encoding across runs.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`

	PartitionsBefore int    `json:"partitions_before"`
	PartitionsAfter  int    `json:"partitions_after"`
	EpochBefore      uint64 `json:"epoch_before"`
	EpochAfter       uint64 `json:"epoch_after"`

	Ticks          int        `json:"ticks"`
	ChangesApplied int        `json:"changes_applied"`
	ChangesAborted int        `json:"changes_aborted"`
	Decisions      []Decision `json:"decisions,omitempty"` // acting decisions only

	Mig     reconfig.MigrationStats `json:"migration"`
	Crashes int                     `json:"crashes"`

	Ops       int `json:"ops"`
	FailedOps int `json:"failed_ops"`

	// Checked is false when some operations timed out (indeterminate
	// effects cannot be expressed to the checker); Linearizable is only
	// meaningful when Checked.
	Checked      bool `json:"checked"`
	Linearizable bool `json:"linearizable"`

	Err string `json:"error,omitempty"`
}

// pickKey draws one workload key for a scenario: skewed scenarios
// hammer partition 0's low keys, scale-out warms both partitions.
func pickKey(scenario string, rng *rand.Rand) store.OID {
	const half = keyCount / 2
	switch scenario {
	case ScenarioScaleOut:
		// 60/40 over the two partitions' hot head keys.
		if rng.Intn(100) < 60 {
			return store.OID(rng.Intn(4))
		}
		return store.OID(half + rng.Intn(4))
	default:
		// 85% on partition 0's four hottest keys, the rest uniform over
		// partition 1.
		if rng.Intn(100) < 85 {
			return store.OID(rng.Intn(4))
		}
		return store.OID(half + rng.Intn(half))
	}
}

// Run executes one seeded scenario: skewed clients drive the workload
// through epoch-aware routers while the controller rebalances the
// deployment underneath them, and the full client history is checked
// for linearizability.
func Run(o Options) (*Report, error) {
	if !slices.Contains(Scenarios, o.Scenario) {
		return nil, fmt.Errorf("rebalance: unknown scenario %q (have %v)", o.Scenario, Scenarios)
	}

	const maxParts = 4
	groups := multicast.Layout(2, groupSize)
	initial := reconfig.Halves(groups, keyCount)
	// The controller needs the same heat collector the replicas feed;
	// graft one sized for the partition cap (split-created partitions
	// must have collectors from the start) when the caller supplied
	// none.
	obsv := o.Obs
	if obsv.Heat() == nil {
		obsv = obs.WithHeat(obsv, obs.NewHeat(maxParts, 250*sim.Microsecond, 8))
	}
	run, err := kvapp.Deploy(kvapp.Spec{
		Harness: "rebalance", Clients: clientCount, OpsPerClient: opsPerClient,
		Groups: groups, MaxPartitions: maxParts, MaxGroupSize: groupSize,
		Owner: initial, StoreKeys: keyCount, ValBytes: 8,
		OIDs: kvapp.Keys(keyCount),
		Seed: o.Seed, Obs: obsv,
	})
	if err != nil {
		return nil, err
	}
	defer run.Close()
	d, hist, s := run.D, run.Hist, run.D.Sched

	mgr := reconfig.NewManager(d, initial, reconfig.ManagerOptions{
		Apps: run.Apps, FenceTimeout: fenceTimeout, Obs: obsv,
	})
	ctl := New(mgr, obsv.Heat(), scenarioPolicy(o.Scenario))
	ctl.Observe(obsv)
	ctl.Until = sim.Time(active)
	if o.Scenario == ScenarioScaleOut {
		ctl.Spares = []rdma.NodeID{301, 302, 303}
	}
	d.Start()

	rep := &Report{
		Scenario:         o.Scenario,
		Seed:             o.Seed,
		PartitionsBefore: len(groups),
		EpochBefore:      initial.Epoch,
	}

	// Faults compose through the chaos engine: the feeder-crash scenario
	// silences partition 0's telemetry at a fixed instant; the
	// donor-crash scenario kills a migration donor at a fixed offset
	// after the controller's own change-start hook fires.
	var events []chaos.Event
	if o.Scenario == ScenarioFeederCrash {
		events = append(events, chaos.Event{At: crashAt, Kind: chaos.EvCrash, Part: 0, Rank: 0})
	}
	eng := chaos.Install(d, chaos.Schedule{Seed: o.Seed, Profile: "rebalance-" + o.Scenario, Events: events}, obsv)
	if o.Scenario == ScenarioDonorCrash {
		crashed := false
		ctl.OnChangeStart = func(now sim.Time, dec Decision) {
			if crashed || !acting(dec.Action) {
				return
			}
			crashed = true
			hot := core.PartitionID(dec.Hot)
			s.At(now+sim.Time(donorCrashDelay), func() {
				// Rank 2 of the hot partition: a fence participant and
				// migration source candidate, leaving a 2/3 majority.
				if r := d.Replica(hot, 2); r != nil {
					r.Crash()
					rep.Crashes++
				}
			})
		}
	}
	ctl.Start(s)

	think := func(rng *rand.Rand) sim.Duration { return sim.Duration(200+rng.Intn(400)) * sim.Microsecond }
	settled := func() bool { return ctl.Stopped() && eng.Fired() && d.Settled() }
	err = run.Drive(horizon, settled, think, func(int) kvapp.Op {
		cr := reconfig.NewClientRouter(d.NewClient(), initial)
		return func(p *sim.Proc, rng *rand.Rand) (*kvapp.Req, func() (uint64, bool)) {
			req := &kvapp.Req{Add: uint64(rng.Intn(100))}
			req.Writes = append(req.Writes, pickKey(o.Scenario, rng))
			if rng.Intn(100) < 40 {
				req.Reads = append(req.Reads, pickKey(o.Scenario, rng))
			}
			return req, func() (uint64, bool) {
				resp, ok := cr.SubmitTimeout(p, req.OIDs(), req.Encode(), opTimeout)
				return kvapp.DecodeVal(resp), ok
			}
		}
	})
	if err != nil {
		return nil, err
	}
	eng.Close()

	rep.Ops, rep.FailedOps = hist.Ops, hist.Failed
	rep.PartitionsAfter = d.Partitions()
	rep.EpochAfter = mgr.Current().Epoch
	rep.Ticks = len(ctl.Log)
	rep.ChangesApplied = ctl.Applied
	rep.ChangesAborted = ctl.Aborted
	rep.Decisions = ctl.ActingLog()
	rep.Mig = mgr.TotalMig
	rep.Crashes += eng.Crashes
	if len(ctl.Errors) > 0 {
		rep.Err = ctl.Errors[0]
		return rep, nil
	}
	rep.Checked, rep.Linearizable, rep.Err = hist.Verdict()
	return rep, nil
}
