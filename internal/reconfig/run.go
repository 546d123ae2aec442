package reconfig

import (
	"fmt"
	"math/rand"

	"heron/internal/chaos"
	"heron/internal/kvapp"
	"heron/internal/multicast"
	"heron/internal/obs"
	"heron/internal/persist"
	"heron/internal/rdma"
	"heron/internal/sim"
	"heron/internal/store"
)

// Scenarios.
const (
	// ScenarioScaleOut grows both partitions from 3 to 5 replicas.
	ScenarioScaleOut = "scaleout"
	// ScenarioScaleIn shrinks both partitions from 5 to 3 replicas.
	ScenarioScaleIn = "scalein"
	// ScenarioSplit splits 2 partitions into 4, migrating half of each
	// partition's key range to a freshly created partition.
	ScenarioSplit = "split"
	// ScenarioCrash is ScenarioSplit with one replica crashing
	// mid-migration (driven through the chaos engine's reconfig event).
	ScenarioCrash = "crash"
)

// Scenarios lists the built-in scenarios.
var Scenarios = []string{ScenarioScaleOut, ScenarioScaleIn, ScenarioSplit, ScenarioCrash}

// Options configure one reconfiguration run. Everything else is fixed:
// the constants below, and per scenario by scenarioLayout.
type Options struct {
	Scenario string
	Seed     int64
	Obs      *obs.Observer
	// Persist, when non-nil, attaches the durable checkpointing layer and
	// wires it as the manager's JoinerSeeder: joiners bring up from a
	// donor's checkpoint plus a delta transfer instead of the full state.
	Persist *persist.Options
}

// Every scenario runs 3 clients of 14 operations (42, within lincheck's
// 64-op bound) and initiates its change 5 ms in, so client operations
// straddle it.
const (
	clientCount, opsPerClient = 3, 14
	opTimeout                 = 200 * sim.Millisecond
	fenceTimeout              = 100 * sim.Millisecond
	horizon                   = 3 * sim.Second
	reconfigAt                = 5 * sim.Millisecond
)

// Report is the outcome of one reconfiguration run. Every field derives
// from virtual-clock state, so the same seed and options produce a
// byte-identical JSON encoding across runs.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`

	PartitionsBefore int `json:"partitions_before"`
	PartitionsAfter  int `json:"partitions_after"`
	ReplicasBefore   int `json:"replicas_before"`
	ReplicasAfter    int `json:"replicas_after"`

	EpochBefore    uint64 `json:"epoch_before"`
	EpochAfter     uint64 `json:"epoch_after"`
	Committed      bool   `json:"committed"`
	MovedObjects   int    `json:"moved_objects"`
	FencedReplicas int    `json:"fenced_replicas"`
	EpochRefreshes int    `json:"epoch_refreshes"`
	Crashes        int    `json:"crashes"`

	Ops       int `json:"ops"`
	FailedOps int `json:"failed_ops"`

	// CkptRecoveries counts replica bring-ups that restored a durable
	// checkpoint before their delta transfer (only with Options.Persist).
	CkptRecoveries uint64 `json:"checkpoint_recoveries,omitempty"`

	// Checked is false when some operations timed out (indeterminate
	// effects cannot be expressed to the checker); Linearizable is only
	// meaningful when Checked.
	Checked      bool `json:"checked"`
	Linearizable bool `json:"linearizable"`

	Err string `json:"error,omitempty"`
}

// layout is one scenario's fixed shape: its initial groups and key
// count, the change it applies, the room that change needs, and, for
// ScenarioCrash, when p0/r2 crashes (just after the change starts,
// landing mid-migration).
type layout struct {
	groups             [][]rdma.NodeID
	keys               int
	change             Change
	maxParts, maxGroup int
	crashAt            sim.Duration
}

// scenarioLayout returns a scenario's shape.
func scenarioLayout(scenario string) (layout, error) {
	switch scenario {
	case ScenarioScaleOut:
		return layout{groups: multicast.Layout(2, 3), keys: 8, maxParts: 2, maxGroup: 5,
			change: Change{AddReplicas: []AddReplica{
				{Part: 0, Node: 101}, {Part: 0, Node: 102},
				{Part: 1, Node: 103}, {Part: 1, Node: 104},
			}}}, nil
	case ScenarioScaleIn:
		return layout{groups: multicast.Layout(2, 5), keys: 8, maxParts: 2, maxGroup: 5,
			change: Change{RemoveReplicas: []RemoveReplicas{{Part: 0, Count: 2}, {Part: 1, Count: 2}}}}, nil
	case ScenarioSplit, ScenarioCrash:
		const keys, half, quarter = 16, 8, 4
		l := layout{groups: multicast.Layout(2, 3), keys: keys, maxParts: 4, maxGroup: 3,
			change: Change{
				AddPartitions: [][]rdma.NodeID{{201, 202, 203}, {204, 205, 206}},
				Moves: []Move{
					{Lo: half - quarter, Hi: half - 1, To: 2},
					{Lo: keys - quarter, Hi: keys - 1, To: 3},
				},
			}}
		if scenario == ScenarioCrash {
			l.crashAt = reconfigAt + 200*sim.Microsecond
		}
		return l, nil
	}
	return layout{}, fmt.Errorf("reconfig: unknown scenario %q (have %v)", scenario, Scenarios)
}

// Run executes one seeded reconfiguration scenario: concurrent clients
// drive the workload through epoch-aware routers while the manager applies
// the scenario's change mid-run; the full client history is recorded with
// virtual-time intervals and checked for linearizability. The workload's
// OIDs are plain key indices, so ownership is decided purely by the
// Configuration's routing table — the thing reconfiguration changes out
// from under the clients.
func Run(o Options) (*Report, error) {
	sc, err := scenarioLayout(o.Scenario)
	if err != nil {
		return nil, err
	}
	initial := Halves(sc.groups, sc.keys)
	run, err := kvapp.Deploy(kvapp.Spec{
		Harness: "reconfig", Clients: clientCount, OpsPerClient: opsPerClient,
		Groups: sc.groups, MaxPartitions: sc.maxParts, MaxGroupSize: sc.maxGroup,
		Owner: initial, StoreKeys: sc.keys, ValBytes: 8,
		OIDs: kvapp.Keys(sc.keys),
		Seed: o.Seed, Obs: o.Obs,
	})
	if err != nil {
		return nil, err
	}
	defer run.Close()
	d, hist, s := run.D, run.Hist, run.D.Sched
	var seeder JoinerSeeder
	var pl *persist.Layer
	if o.Persist != nil {
		pl = persist.Attach(d, o.Persist)
		pl.Observe(o.Obs)
		seeder = pl
	}
	mgr := NewManager(d, initial, ManagerOptions{Apps: run.Apps, FenceTimeout: fenceTimeout, Obs: o.Obs, Seeder: seeder})
	d.Start()

	rep := &Report{
		Scenario:         o.Scenario,
		Seed:             o.Seed,
		PartitionsBefore: len(sc.groups),
		EpochBefore:      initial.Epoch,
	}
	for _, g := range sc.groups {
		rep.ReplicasBefore += len(g)
	}

	// The change is initiated through the chaos engine's reconfig event,
	// so fault and reconfiguration schedules compose; ScenarioCrash adds a
	// crash landing mid-migration.
	events := []chaos.Event{{At: reconfigAt, Kind: chaos.EvReconfig}}
	if sc.crashAt != 0 {
		events = append(events, chaos.Event{At: sc.crashAt, Kind: chaos.EvCrash, Part: 0, Rank: 2})
	}
	eng := chaos.Install(d, chaos.Schedule{Seed: o.Seed, Profile: "reconfig-" + o.Scenario, Events: events}, o.Obs)
	trigger := sim.NewCond(s)
	fired := false
	eng.Reconfig = func(chaos.Event) {
		fired = true
		trigger.Broadcast()
	}
	var result *Result
	var execErr error
	executed := false
	s.Spawn("reconfig-driver", func(p *sim.Proc) {
		trigger.WaitUntil(p, func() bool { return fired })
		result, execErr = mgr.Execute(p, sc.change)
		executed = true
	})
	settled := func() bool {
		return executed && eng.Fired() && d.Settled() && (pl == nil || pl.Idle())
	}

	var routers []*ClientRouter
	think := func(rng *rand.Rand) sim.Duration { return sim.Duration(rng.Intn(2000)) * sim.Microsecond }
	err = run.Drive(horizon, settled, think, func(int) kvapp.Op {
		cr := NewClientRouter(d.NewClient(), initial)
		routers = append(routers, cr)
		return func(p *sim.Proc, rng *rand.Rand) (*kvapp.Req, func() (uint64, bool)) {
			req := &kvapp.Req{Add: uint64(rng.Intn(100))}
			for j := 0; j < rng.Intn(3); j++ {
				req.Reads = append(req.Reads, store.OID(rng.Intn(sc.keys)))
			}
			for j := 0; j < 1+rng.Intn(2); j++ {
				req.Writes = append(req.Writes, store.OID(rng.Intn(sc.keys)))
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
	for g := 0; g < d.Partitions(); g++ {
		rep.ReplicasAfter += len(d.Replicas[g])
		for _, r := range d.Replicas[g] {
			rep.CkptRecoveries += r.CheckpointRecoveries()
		}
	}
	rep.EpochAfter = mgr.Current().Epoch
	rep.Crashes = eng.Crashes
	if result != nil {
		rep.Committed = result.Committed
		rep.MovedObjects = result.Moved
		rep.FencedReplicas = result.Fenced
	}
	for _, cr := range routers {
		rep.EpochRefreshes += cr.Refreshes
	}
	switch {
	case execErr != nil:
		rep.Err = execErr.Error()
		return rep, nil
	case result == nil:
		rep.Err = "reconfiguration still in flight at the horizon"
		return rep, nil
	}
	rep.Checked, rep.Linearizable, rep.Err = hist.Verdict()
	return rep, nil
}
