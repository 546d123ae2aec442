package rebalance

import (
	"fmt"
	"math/rand"

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

// Options configure one verification run.
type Options struct {
	Scenario string
	Seed     int64

	Keys         int
	Clients      int
	OpsPerClient int // Clients*OpsPerClient must stay within lincheck's 64-op bound

	OpTimeout    sim.Duration
	FenceTimeout sim.Duration
	Horizon      sim.Duration
	// Active bounds the controller's decision loop (the workload and any
	// faults land inside it); the run continues to Horizon to drain.
	Active sim.Duration
	// CrashAt is when ScenarioFeederCrash kills p0/r0.
	CrashAt sim.Duration
	// DonorCrashDelay is the offset after a change starts at which
	// ScenarioDonorCrash kills a donor replica of the hot partition.
	DonorCrashDelay sim.Duration

	// Policy overrides the scenario's default policy when non-nil.
	Policy *Policy

	Obs *obs.Observer
}

// DefaultOptions sizes a scenario for the linearizability checker.
func DefaultOptions(scenario string, seed int64) Options {
	return Options{
		Scenario:        scenario,
		Seed:            seed,
		Keys:            16,
		Clients:         3,
		OpsPerClient:    14,
		OpTimeout:       200 * sim.Millisecond,
		FenceTimeout:    100 * sim.Millisecond,
		Horizon:         3 * sim.Second,
		Active:          30 * sim.Millisecond,
		CrashAt:         4 * sim.Millisecond,
		DonorCrashDelay: 150 * sim.Microsecond,
	}
}

// scenarioPolicy returns the controller policy a scenario runs under.
func scenarioPolicy(o Options) Policy {
	if o.Policy != nil {
		return *o.Policy
	}
	pol := DefaultPolicy()
	pol.Tick = 1 * sim.Millisecond
	pol.Cooldown = 3 * sim.Millisecond
	pol.HotRatio = 1.4
	pol.ColdRatio = 0.8
	pol.MinRate = 500
	pol.DominantShare = 0.6
	pol.MaxChanges = 2
	pol.MaxPartitions = 4
	if o.Scenario == ScenarioScaleOut {
		// Both partitions stay warm: only a fresh partition can absorb.
		pol.HotRatio = 1.1
		pol.ColdRatio = 0.3
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
func pickKey(scenario string, rng *rand.Rand, keys int) store.OID {
	half := keys / 2
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
	hist, err := kvapp.NewHistory("rebalance", o.Clients, o.OpsPerClient)
	if err != nil {
		return nil, err
	}
	known := false
	for _, sc := range Scenarios {
		known = known || sc == o.Scenario
	}
	if !known {
		return nil, fmt.Errorf("rebalance: unknown scenario %q (have %v)", o.Scenario, Scenarios)
	}

	const maxParts, groupSize = 4, 3
	half := store.OID(o.Keys / 2)
	groups := [][]rdma.NodeID{{1, 2, 3}, {4, 5, 6}}
	initial := &reconfig.Configuration{
		Epoch:  1,
		Groups: groups,
		Routes: []reconfig.Range{
			{Lo: 0, Hi: half - 1, Part: 0},
			{Lo: half, Hi: store.OID(o.Keys) - 1, Part: 1},
		},
	}

	s := sim.NewScheduler()
	defer s.Close()
	cfg := core.DefaultConfig(multicast.DefaultConfig(groups))
	cfg.StoreCapacity = kvapp.SlotCapacity(o.Keys, 8)
	cfg.MaxPartitions = maxParts
	cfg.MaxGroupSize = groupSize
	apps := kvapp.New(initial, 8)
	d, err := core.NewDeployment(s, cfg, apps, initial)
	if err != nil {
		return nil, err
	}
	if err := kvapp.Populate(d, initial, kvapp.Keys(o.Keys), 8); err != nil {
		return nil, err
	}
	d.Fabric.SetFaultSeed(o.Seed)

	// The controller needs the same heat collector the replicas feed;
	// graft one sized for the partition cap (split-created partitions
	// must have collectors from the start) when the caller supplied
	// none.
	obsv := o.Obs
	if obsv.Heat() == nil {
		obsv = obs.NewFull(obsv.Tracer(), obsv.Metrics(), obsv.CritPath(),
			obs.NewHeat(maxParts, 250*sim.Microsecond, 8), obsv.Flight())
	}
	d.Observe(obsv)

	mgr := reconfig.NewManager(d, initial, reconfig.ManagerOptions{
		Apps: apps, FenceTimeout: o.FenceTimeout, Obs: obsv,
	})
	ctl := New(mgr, obsv.Heat(), scenarioPolicy(o))
	ctl.Observe(obsv)
	ctl.Until = sim.Time(o.Active)
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
		events = append(events, chaos.Event{At: o.CrashAt, Kind: chaos.EvCrash, Part: 0, Rank: 0})
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
			s.At(now+sim.Time(o.DonorCrashDelay), func() {
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

	routers := make([]*reconfig.ClientRouter, o.Clients)
	for ci := 0; ci < o.Clients; ci++ {
		ci := ci
		cr := reconfig.NewClientRouter(d.NewClient(), initial)
		routers[ci] = cr
		rng := rand.New(rand.NewSource(o.Seed*1000 + int64(ci)))
		s.Spawn(fmt.Sprintf("rebalance-client%d", ci), func(p *sim.Proc) {
			for i := 0; i < o.OpsPerClient; i++ {
				req := &kvapp.Req{Add: uint64(rng.Intn(100))}
				req.Writes = append(req.Writes, pickKey(o.Scenario, rng, o.Keys))
				if rng.Intn(100) < 40 {
					req.Reads = append(req.Reads, pickKey(o.Scenario, rng, o.Keys))
				}
				if hist.Do(p, ci, req, func() (uint64, bool) {
					resp, ok := cr.SubmitTimeout(p, req.OIDs(), req.Encode(), o.OpTimeout)
					return kvapp.DecodeVal(resp), ok
				}) {
					p.Sleep(sim.Duration(200+rng.Intn(400)) * sim.Microsecond)
				}
			}
		})
	}

	if err := s.RunUntil(sim.Time(o.Horizon)); err != nil {
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
